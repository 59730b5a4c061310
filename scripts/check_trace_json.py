#!/usr/bin/env python3
"""Validate Chrome trace-event JSON exported by the ef::obs timeline.

Usage: check_trace_json.py [--min-span-names N] [--require-slow] [FILE]
       (reads stdin when FILE is omitted)

Structural checks on a --trace-out capture or the "trace" verb's embedded
document (what Perfetto / chrome://tracing would load):
  * top level is an object with a "traceEvents" array
  * every event has a string "name", a known phase ("X" complete or
    "i" instant), numeric "ts" >= 0, and numeric "pid"/"tid"
  * complete events carry numeric "dur" >= 0 and args with integer
    trace_id / span_id / parent_id
  * timestamps are monotone non-decreasing across the traceEvents array
    (the exporter sorts)
  * span ids are unique; every span's parent_id is 0 or names another
    span of the same trace
  * with --min-span-names N: at least one trace contains >= N distinct
    span names (e.g. 4 proves the lookup/cache/match/respond pipeline was
    captured end to end)
  * with --require-slow: at least one slow-request exemplar is present
    (a serve.slow_request instant marker or a span with args.slow_us)

Importable: validate(doc, min_span_names=0, require_slow=False) takes the
parsed JSON and returns a list of problem strings (empty = ok). The CLI
prints each problem and exits 1 on any, 2 on usage/IO errors — always a
readable message, never a traceback.
"""
import json
import sys

KNOWN_PHASES = ("X", "i", "M")


def validate(doc, min_span_names=0, require_slow=False):
    problems = []
    if not isinstance(doc, dict):
        return ["top level is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array \"traceEvents\""]

    span_ids = set()
    spans_by_trace = {}   # trace_id -> set of span ids
    names_by_trace = {}   # trace_id -> set of span names
    parents = []          # (index, trace_id, parent_id)
    slow_seen = False
    prev_ts = None
    for i, event in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        name = event.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing or empty name")
            name = ""
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            problems.append(f"{where} ({name}): unknown phase {phase!r}")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where} ({name}): bad ts {ts!r}")
            continue
        if prev_ts is not None and ts < prev_ts:
            problems.append(
                f"{where} ({name}): ts {ts} < previous event's {prev_ts} "
                "(not monotone)")
        prev_ts = ts
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), (int, float)):
                problems.append(f"{where} ({name}): missing numeric {key}")
        args = event.get("args")
        if not isinstance(args, dict):
            problems.append(f"{where} ({name}): missing args object")
            args = {}
        if name == "serve.slow_request" or args.get("slow_us"):
            slow_seen = True
        if phase != "X":
            continue

        dur = event.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            problems.append(f"{where} ({name}): bad dur {dur!r}")
        ids = {}
        for key in ("trace_id", "span_id", "parent_id"):
            value = args.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"{where} ({name}): args.{key} is {value!r}, "
                                "expected a non-negative integer")
                value = None
            ids[key] = value
        if ids["span_id"] is not None:
            if ids["span_id"] in span_ids:
                problems.append(
                    f"{where} ({name}): duplicate span_id {ids['span_id']}")
            span_ids.add(ids["span_id"])
        if ids["trace_id"] is not None:
            spans_by_trace.setdefault(ids["trace_id"], set())
            if ids["span_id"] is not None:
                spans_by_trace[ids["trace_id"]].add(ids["span_id"])
            names_by_trace.setdefault(ids["trace_id"], set()).add(name)
            if ids["parent_id"] is not None:
                parents.append((i, ids["trace_id"], ids["parent_id"]))

    for i, trace_id, parent_id in parents:
        if parent_id != 0 and parent_id not in spans_by_trace.get(trace_id, set()):
            problems.append(
                f"event[{i}]: parent_id {parent_id} not found in trace {trace_id}")

    if min_span_names > 0:
        best = max((len(names) for names in names_by_trace.values()), default=0)
        if best < min_span_names:
            problems.append(
                f"no trace has >= {min_span_names} distinct span names "
                f"(best: {best}; traces: {len(names_by_trace)})")
    if require_slow and not slow_seen:
        problems.append("no slow-request exemplar found "
                        "(no serve.slow_request marker or args.slow_us)")
    return problems


def main():
    argv = sys.argv[1:]
    min_span_names = 0
    require_slow = False
    paths = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--min-span-names":
            if i + 1 >= len(argv) or not argv[i + 1].isdigit():
                print(__doc__)
                return 2
            min_span_names = int(argv[i + 1])
            i += 2
        elif arg == "--require-slow":
            require_slow = True
            i += 1
        else:
            paths.append(arg)
            i += 1
    if len(paths) > 1:
        print(__doc__)
        return 2

    try:
        if paths:
            with open(paths[0]) as f:
                text = f.read()
        else:
            text = sys.stdin.read()
    except OSError as err:
        print(f"check_trace_json: cannot read input: {err}")
        return 2
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        print(f"check_trace_json: not valid JSON: {err}")
        return 1

    problems = validate(doc, min_span_names, require_slow)
    if problems:
        for problem in problems:
            print(f"  [FAIL] {problem}")
        print(f"check_trace_json: {len(problems)} problem(s)")
        return 1
    events = doc.get("traceEvents", [])
    traces = {e.get("args", {}).get("trace_id")
              for e in events if isinstance(e, dict)} - {None}
    print(f"check_trace_json: ok ({len(events)} events, {len(traces)} traces)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
