#!/usr/bin/env python3
"""Loopback smoke test for efserve (used by CI).

Usage: serve_smoke.py EFSERVE_BINARY MODEL_EFR [EFSTAT_BINARY]

Starts efserve on an ephemeral port with fast polling and timeline tracing
armed (--trace-sample 1, --trace-out, a sub-microsecond --slow-request-us
so every request becomes a slow exemplar), then exercises the JSON-lines
protocol end to end: ping, a model name that needs JSON escaping (a quote
and a raw tab) listed by the models verb and by efstat --json, cold miss,
warm cache hit, a 1-ulp neighbour that misses the cache, explicit abstention,
bad requests (connection must survive), protocol v2 (id echo, "v":2
envelope, structured error objects — with a v1 client on the same server
still getting byte-plain v1 answers), pipelined bursts over several
concurrent connections answered strictly in request order, a slowloris
client framing one byte at a time, on-disk model swap (version bump,
identical values), the metrics/events/trace observability verbs (trace
document validated with check_trace_json), windowed coverage of every
histogram once the collector window is live, a raw HTTP GET /metrics
scrape (validated with check_prometheus), a SIGUSR1 flight-recorder dump
(server keeps serving), the forecast-quality loop (v2 interval field,
observe/quality verbs, live accuracy maturation, a forced regime shift
landing drift.detected in the event log, stale-actual handling, labelled
ef_quality_* series on the scrape), optionally one efstat --once --json
poll plus an efstat --trace breakdown, graceful SIGTERM shutdown, and
finally the --trace-out file itself (well-formed, >= 4 span names in one
request, slow exemplars present). Exits non-zero on the first failed
check.
"""
import json
import math
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_prometheus  # noqa: E402  (sibling module, no package)
import check_trace_json  # noqa: E402

FAILURES = []

# The demo model is also served under this name: a quote and a raw tab
# must come back escaped from both the models verb and efstat --json.
ODD_NAME = 'odd"\tname'


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}{': ' + str(detail) if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.reader = self.sock.makefile("r")

    def request(self, line):
        self.sock.sendall((line + "\n").encode())
        response = self.reader.readline().strip()
        try:
            return json.loads(response)
        except json.JSONDecodeError:
            return {"_raw": response}

    def close(self):
        self.sock.close()


def sine_window(phase, length=6, period=25.0):
    return [math.sin(2.0 * math.pi * (phase + t) / period) for t in range(length)]


class LineDrain:
    """Continuously drain a pipe into a list so the child never blocks on a
    full pipe buffer (the SIGUSR1 dump writes freely to stdout/stderr)."""

    def __init__(self, stream):
        self.lines = []
        self.cond = threading.Condition()
        self.thread = threading.Thread(target=self._run, args=(stream,), daemon=True)
        self.thread.start()

    def _run(self, stream):
        for line in stream:
            with self.cond:
                self.lines.append(line.rstrip("\n"))
                self.cond.notify_all()

    def wait_for(self, needle, timeout=15):
        """Block until a line containing `needle` arrives; returns its index
        or None on timeout."""
        deadline = time.time() + timeout
        with self.cond:
            while True:
                for i, line in enumerate(self.lines):
                    if needle in line:
                        return i
                remaining = deadline - time.time()
                if remaining <= 0:
                    return None
                self.cond.wait(remaining)


def http_get(port, path):
    """One-shot HTTP/1.0 GET on the JSON-lines port; returns (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n".encode())
        raw = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode()


def launch_server(efserve, model_path, trace_path, attempts=3):
    """Start efserve on an ephemeral port and wait for it to report the port.

    The kernel hands out the port (--port 0), so a clean bind cannot collide
    — but a constrained environment can still fail the bind (exhausted
    ephemeral range, EADDRINUSE from aggressive TIME_WAIT reuse). Retry a
    few times before declaring the smoke test dead; each retry gets a fresh
    socket and a fresh kernel-assigned port.

    Returns (proc, port, stderr_drain) or (None, None, None) after the last
    failed attempt.
    """
    for attempt in range(1, attempts + 1):
        proc = subprocess.Popen(
            [efserve, f"demo={model_path}", f"{ODD_NAME}={model_path}",
             "--port", "0", "--poll-ms", "100",
             # Timeline tracing armed for the whole run; the tiny slow
             # threshold turns every request into a slow exemplar so the
             # exemplar path is exercised deterministically.
             "--trace-sample", "1", "--trace-out", trace_path,
             "--slow-request-us", "0.001"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        stderr_drain = LineDrain(proc.stderr)
        deadline = time.time() + 30
        while time.time() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            print(f"  server: {line.rstrip()}")
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1].split()[0])
                return proc, port, stderr_drain
        proc.kill()
        proc.wait()
        bind_error = any(
            "bind" in line or "Address already in use" in line
            for line in stderr_drain.lines)
        print(f"  launch attempt {attempt}/{attempts} failed"
              f"{' (bind error, retrying)' if bind_error else ''}:")
        for line in stderr_drain.lines[-5:]:
            print(f"    server stderr: {line}")
        if not bind_error:
            break  # not a port problem; retrying would just repeat it
        time.sleep(0.5 * attempt)
    return None, None, None


def main():
    if len(sys.argv) not in (3, 4):
        print(__doc__)
        return 2
    efserve, model_path = sys.argv[1], sys.argv[2]
    efstat = sys.argv[3] if len(sys.argv) == 4 else None
    trace_path = model_path + ".trace.json"

    proc, port, stderr_drain = launch_server(efserve, model_path, trace_path)
    if proc is None:
        print("FAIL: server never reported its port")
        return 1
    stdout_drain = LineDrain(proc.stdout)

    try:
        client = Client(port)

        check("ping", client.request('{"cmd":"ping"}').get("ok") is True)
        models = client.request('{"cmd":"models"}')
        check("models lists demo", models.get("ok") is True and "demo" in str(models))
        demo_entry = next((m for m in models.get("models", [])
                           if m.get("name") == "demo"), None)
        check("models entry carries version/rules/window",
              demo_entry is not None
              and demo_entry.get("version", 0) >= 1
              and demo_entry.get("rules", 0) >= 1
              and demo_entry.get("window", 0) >= 1, demo_entry)
        check("models lists the odd-named model",
              any(m.get("name") == ODD_NAME for m in models.get("models", [])), models)
        # The container section is fleet-mode only (scripts/fleet_smoke.py
        # asserts its schema); a file-backed server must not emit it.
        check("no container section without --container",
              "container" not in models, models)

        # Cold miss on a window the demo model (noisy sine) should cover.
        # Try a few phases; the trained model covers ~95% of the attractor.
        covered = None
        for phase in range(0, 25, 3):
            window = sine_window(phase)
            r = client.request(json.dumps({"model": "demo", "window": window}))
            if r.get("ok") and not r.get("abstain"):
                covered = (window, r)
                break
        check("cold miss returns a value", covered is not None)
        if covered is None:
            raise SystemExit(1)
        window, cold = covered
        check("cold miss is uncached", cold.get("cached") is False, cold)
        check("value is finite", math.isfinite(cold.get("value", math.nan)), cold)
        check("votes reported", cold.get("votes", 0) >= 1, cold)

        # Warm hit: identical request, identical value, cached:true.
        warm = client.request(json.dumps({"model": "demo", "window": window}))
        check("warm hit is cached", warm.get("cached") is True, warm)
        check("warm hit value identical", warm.get("value") == cold.get("value"), warm)
        # Exact keys: one value moved by one ulp is another window, answered
        # afresh (and its bits survive the JSON round trip to the server).
        nudged = list(window)
        nudged[0] = math.nextafter(nudged[0], math.inf)
        r = client.request(json.dumps({"model": "demo", "window": nudged}))
        check("1-ulp neighbour is not cached", r.get("ok") and r.get("cached") is False, r)

        # Explicit abstention: windows far outside the training attractor.
        abstained = None
        for probe in ([50.0] * 6, [-50.0] * 6, [1e6] * 6):
            r = client.request(json.dumps({"model": "demo", "window": probe}))
            if r.get("ok") and r.get("abstain"):
                abstained = r
                break
        check("uncovered window abstains explicitly", abstained is not None)
        if abstained:
            check("abstention has no value field", "value" not in abstained, abstained)
            check("abstention reports zero votes", abstained.get("votes") == 0, abstained)

        # Bad requests: ok:false with a reason, connection stays usable.
        for bad in (
            "this is not json",
            '{"model":"no-such-model","window":[0.1]}',
            '{"model":"demo","window":[0.1]}',          # wrong window length
            '{"model":"demo","window":[0.1],"bogus":1}',  # unknown field
            '{"model":"demo"}',                          # missing window
        ):
            r = client.request(bad)
            check(f"bad request rejected ({bad[:24]}...)",
                  r.get("ok") is False and r.get("error"), r)
        check("connection survives bad requests",
              client.request('{"cmd":"ping"}').get("ok") is True)

        # -- protocol v2: envelope echo, structured errors, v1 unchanged --

        v2 = client.request('{"cmd":"ping","v":2,"id":"smoke-1"}')
        check("v2 ping carries envelope", v2.get("ok") is True
              and v2.get("v") == 2 and v2.get("id") == "smoke-1", v2)
        numeric = client.request('{"cmd":"ping","id":7}')
        check("numeric id alone implies v2",
              numeric.get("v") == 2 and numeric.get("id") == 7, numeric)
        v2p = client.request(json.dumps(
            {"model": "demo", "window": window, "v": 2, "id": "p-1"}))
        check("v2 predict echoes id", v2p.get("ok") is True
              and v2p.get("v") == 2 and v2p.get("id") == "p-1", v2p)
        check("v2 predict value matches v1",
              v2p.get("value") == cold.get("value"), v2p)
        v2err = client.request(json.dumps(
            {"model": "no-such-model", "window": window, "v": 2, "id": "e-1"}))
        check("v2 error is a structured object",
              v2err.get("ok") is False and isinstance(v2err.get("error"), dict)
              and v2err["error"].get("code") == "unknown_model"
              and v2err["error"].get("message"), v2err)
        check("v2 error echoes envelope", v2err.get("v") == 2
              and v2err.get("id") == "e-1", v2err)
        v1err = client.request('{"model":"no-such-model","window":[0.1]}')
        check("v1 error stays a plain string",
              v1err.get("ok") is False and isinstance(v1err.get("error"), str)
              and "v" not in v1err and "id" not in v1err, v1err)
        v1ok = client.request('{"cmd":"ping"}')
        check("v1 response carries no envelope",
              v1ok.get("ok") is True and "v" not in v1ok and "id" not in v1ok,
              v1ok)
        badv = client.request('{"cmd":"ping","v":3}')
        check("unknown protocol version rejected",
              badv.get("ok") is False, badv)

        # -- pipelining: concurrent connections, bursts answered in order --

        def pipelined_burst(tag, count=32):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=10) as sock:
                payload = b"".join(
                    (json.dumps({"cmd": "ping", "v": 2, "id": f"{tag}-{i}"})
                     + "\n").encode()
                    for i in range(count))
                sock.sendall(payload)  # whole burst before reading anything
                reader = sock.makefile("r")
                ids = []
                for _ in range(count):
                    line = reader.readline()
                    if not line:
                        return None
                    ids.append(json.loads(line).get("id"))
                return ids

        burst_results = {}

        def burst_worker(tag):
            burst_results[tag] = pipelined_burst(tag)

        burst_threads = [threading.Thread(target=burst_worker, args=(tag,))
                         for tag in ("a", "b", "c", "d")]
        for t in burst_threads:
            t.start()
        for t in burst_threads:
            t.join()
        for tag in ("a", "b", "c", "d"):
            ids = burst_results.get(tag)
            check(f"pipelined burst '{tag}' answered in request order",
                  ids == [f"{tag}-{i}" for i in range(32)],
                  ids[:4] if ids else ids)

        # -- slowloris: one byte at a time must still frame and answer -----

        with socket.create_connection(("127.0.0.1", port), timeout=10) as slow:
            for byte in b'{"cmd":"ping","v":2,"id":"slow"}\n':
                slow.sendall(bytes([byte]))
                time.sleep(0.001)
            reply = slow.makefile("r").readline().strip()
        try:
            slow_reply = json.loads(reply)
        except json.JSONDecodeError:
            slow_reply = {}
        check("byte-at-a-time request answered",
              slow_reply.get("ok") is True and slow_reply.get("id") == "slow",
              reply[:80])

        # Hot reload: rewrite the model file in place (same rules, new
        # mtime); the server must bump the version and keep answering with
        # identical values — zero failed requests across the swap.
        swap = model_path + ".swap"
        shutil.copyfile(model_path, swap)
        os.replace(swap, model_path)  # atomic publish, fresh mtime
        reloaded = None
        for _ in range(50):
            time.sleep(0.1)
            r = client.request(json.dumps(
                {"model": "demo", "window": window, "cache": False}))
            if not r.get("ok"):
                check("request during reload", False, r)
                break
            if r.get("version", 1) >= 2:
                reloaded = r
                break
        check("model hot-reloaded (version bumped)", reloaded is not None)
        if reloaded:
            check("reloaded value identical", reloaded.get("value") == cold.get("value"),
                  reloaded)

        stats = client.request('{"cmd":"stats"}')
        check("stats", stats.get("ok") is True, stats)

        # -- observability: metrics verb, raw HTTP scrape, events, SIGUSR1 --

        metrics = client.request('{"cmd":"metrics"}')
        check("metrics verb", metrics.get("ok") is True
              and metrics.get("format") == "prometheus", metrics)
        problems = check_prometheus.validate(metrics.get("exposition", ""))
        check("metrics verb exposition valid", not problems, problems[:3])

        status, scrape = http_get(port, "/metrics")
        check("GET /metrics is 200", status == 200, status)
        problems = check_prometheus.validate(scrape)
        check("GET /metrics exposition valid", not problems, problems[:3])
        check("scrape has request histogram",
              "evoforecast_serve_request_us_bucket" in scrape)
        check("scrape has build_info", "evoforecast_build_info{" in scrape)
        status404, _ = http_get(port, "/nope")
        check("GET unknown path is 404", status404 == 404, status404)
        check("connection survives HTTP scrape",
              client.request('{"cmd":"ping"}').get("ok") is True)

        events = client.request('{"cmd":"events"}')
        check("events verb", events.get("ok") is True
              and isinstance(events.get("events"), list), events.get("_raw"))
        kinds = {e.get("kind") for e in events.get("events", [])}
        check("events carry serve.start", "serve.start" in kinds, sorted(kinds))
        check("events carry serve.model.load", "serve.model.load" in kinds,
              sorted(kinds))
        check("events carry serve.model.reload", "serve.model.reload" in kinds,
              sorted(kinds))

        # Trace verb: embedded Chrome trace-event document, structurally
        # valid, with the request pipeline (>= 4 distinct span names in one
        # trace) and slow exemplars (every request is "slow" at 0.001 us).
        trace = client.request('{"cmd":"trace"}')
        check("trace verb", trace.get("ok") is True, trace.get("_raw"))
        check("trace verb reports enabled", trace.get("enabled") is True, trace)
        doc = trace.get("trace", {})
        tevents = doc.get("traceEvents")
        check("trace verb has traceEvents", isinstance(tevents, list)
              and len(tevents) > 0, trace.get("_raw"))
        problems = check_trace_json.validate(doc, min_span_names=4,
                                             require_slow=True)
        check("trace verb document valid", not problems, problems[:3])
        names = {e.get("name") for e in tevents or [] if isinstance(e, dict)}
        check("trace has serve.request spans", "serve.request" in names,
              sorted(names)[:10])
        check("trace has inline pipeline spans",
              {"serve.lookup", "serve.cache", "serve.match", "serve.respond"} <= names,
              sorted(names)[:10])

        # Windowed coverage: once the collector window is live every
        # histogram must expose windowed quantiles and a rate. Poll — the
        # collector frames once per second, and a histogram registered
        # after the newest frame only shows up windowed in the next one.
        problems = ["collector window never went live"]
        for _ in range(100):
            text = client.request('{"cmd":"metrics"}').get("exposition", "")
            live = re.search(
                r"^evoforecast_window_seconds ([0-9.eE+-]+)", text, re.MULTILINE)
            if live and float(live.group(1)) > 0:
                problems = check_prometheus.validate_windowed(text)
                if not problems:
                    break
            time.sleep(0.2)
        check("every histogram appears windowed", not problems, problems[:3])

        # SIGUSR1: flight recorder to stderr between markers, report to
        # stdout, server keeps answering.
        begin_before = len(stderr_drain.lines)
        proc.send_signal(signal.SIGUSR1)
        end_at = stderr_drain.wait_for("== flight recorder end ==")
        check("SIGUSR1 dumps flight recorder", end_at is not None)
        if end_at is not None:
            begin_at = stderr_drain.wait_for("== flight recorder begin ==")
            recorded = stderr_drain.lines[begin_at + 1:end_at]
            parsed = []
            for line in recorded:
                try:
                    parsed.append(json.loads(line))
                except json.JSONDecodeError:
                    check("flight recorder line is JSON", False, line[:80])
            dump_kinds = {e.get("kind") for e in parsed}
            check("flight recorder has events", len(parsed) >= 3
                  and begin_at >= begin_before, sorted(dump_kinds))
            check("flight recorder carries model lifecycle",
                  "serve.model.load" in dump_kinds, sorted(dump_kinds))
        check("report goes to stdout",
              stdout_drain.wait_for("run report") is not None
              or stdout_drain.wait_for("serve.requests") is not None)
        check("server survives SIGUSR1",
              client.request('{"cmd":"ping"}').get("ok") is True)
        after = client.request('{"cmd":"metrics"}').get("exposition", "")
        check("report_dumps counter incremented",
              "evoforecast_serve_report_dumps_total 1" in after)

        # -- forecast quality: intervals, observe/quality verbs, drift ------

        # v2 predict replies carry the rule-error interval around the value;
        # v1 must never gain the field.
        v2i = client.request(json.dumps(
            {"model": "demo", "window": window, "v": 2, "id": "i-1"}))
        interval = v2i.get("interval")
        check("v2 predict carries interval",
              isinstance(interval, list) and len(interval) == 2, v2i)
        if isinstance(interval, list) and len(interval) == 2:
            check("interval brackets the value",
                  interval[0] <= v2i.get("value", math.nan) <= interval[1]
                  and interval[0] <= interval[1], v2i)
        v1i = client.request(json.dumps({"model": "demo", "window": window}))
        check("v1 predict has no interval field", "interval" not in v1i, v1i)
        if abstained:
            check("abstention has no interval", "interval" not in abstained,
                  abstained)

        # Before any actuals: tracker enabled but not armed, nothing tracked.
        q0 = client.request('{"cmd":"quality"}')
        check("quality verb before arming", q0.get("ok") is True
              and q0.get("enabled") is True and q0.get("armed") is False
              and q0.get("models") == [], q0)

        bad_observe = client.request('{"cmd":"observe","model":"demo"}')
        check("observe without value rejected", bad_observe.get("ok") is False,
              bad_observe)
        unknown_observe = client.request(
            '{"cmd":"observe","model":"nope","value":1.0,"v":2}')
        check("observe for unknown model rejected",
              unknown_observe.get("ok") is False
              and unknown_observe.get("error", {}).get("code") == "unknown_model",
              unknown_observe)

        # Live accuracy loop: predict, then feed the realized next value.
        # The first observe arms the tracker and creates the model's state;
        # each later observe advances the tick and matures the forecast
        # issued one tick earlier.
        def true_next(phase, length=6, period=25.0):
            return math.sin(2.0 * math.pi * (phase + length) / period)

        first = client.request('{"cmd":"observe","model":"demo","value":%r}'
                               % true_next(-1))
        check("first observe arms and ticks", first.get("ok") is True
              and first.get("tick") == 1 and first.get("stale") is False, first)
        matured_total = 0
        for i in range(30):
            client.request(json.dumps(
                {"model": "demo", "window": sine_window(i), "cache": False}))
            r = client.request(json.dumps(
                {"cmd": "observe", "model": "demo", "value": true_next(i)}))
            matured_total += r.get("matured", 0)
        check("healthy loop matures forecasts", matured_total >= 20,
              matured_total)
        q1 = client.request('{"cmd":"quality","model":"demo"}')
        rows = q1.get("models", [])
        check("quality verb reports demo", q1.get("ok") is True
              and q1.get("armed") is True and len(rows) == 1
              and rows[0].get("model") == "demo", q1)
        if rows:
            row = rows[0]
            check("quality row has rmse/mae", row.get("rmse") is not None
                  and row.get("mae") is not None
                  and row.get("rmse", 0) < 2.0, row)
            check("quality row has coverage",
                  isinstance(row.get("coverage"), (int, float)), row)
            check("no drift on the healthy stream",
                  row.get("drift", {}).get("drifted") is False
                  and row.get("drift", {}).get("detections") == 0, row)

        # Regime shift: the realized values jump by +10 while predictions
        # stay on the sine — matured errors explode and Page–Hinkley fires.
        drift_seen = False
        for i in range(30, 45):
            client.request(json.dumps(
                {"model": "demo", "window": sine_window(i), "cache": False}))
            r = client.request(json.dumps(
                {"cmd": "observe", "model": "demo", "value": true_next(i) + 10.0}))
            if r.get("drift") == "detected":
                drift_seen = True
        check("regime shift raises drift", drift_seen)
        q2 = client.request('{"cmd":"quality","model":"demo"}')
        drift2 = (q2.get("models") or [{}])[0].get("drift", {})
        check("quality reports the detection", drift2.get("detections", 0) >= 1,
              q2)
        drift_events = client.request('{"cmd":"events"}')
        drift_kinds = {e.get("kind") for e in drift_events.get("events", [])}
        check("drift.detected lands in the event log",
              "drift.detected" in drift_kinds, sorted(drift_kinds))

        # Out-of-order actual: an explicit tick at or below the clock is
        # counted stale and matures nothing.
        stale = client.request(
            '{"cmd":"observe","model":"demo","value":0.0,"t":1}')
        check("out-of-order actual is stale", stale.get("ok") is True
              and stale.get("stale") is True and stale.get("matured") == 0,
              stale)

        # Labelled quality series on the scrape, under the label-aware
        # validator (sorted labels, stable sets, bounded cardinality).
        status_q, scrape_q = http_get(port, "/metrics")
        check("quality scrape is 200", status_q == 200, status_q)
        problems = check_prometheus.validate(scrape_q)
        check("labelled scrape still valid", not problems, problems[:3])
        check("scrape has per-model quality series",
              'ef_quality_rmse{model="demo"}' in scrape_q)
        check("scrape has fleet aggregate",
              'ef_quality_rmse{model="_fleet"}' in scrape_q)
        check("scrape has drift counter",
              'ef_quality_drift_detected_total{model="demo"}' in scrape_q)

        if efstat:
            stat = subprocess.run(
                [efstat, "--port", str(port), "--once", "--json"],
                capture_output=True, text=True, timeout=30)
            check("efstat --once --json exits 0", stat.returncode == 0,
                  stat.stderr)
            try:
                snapshot = json.loads(stat.stdout)
                check("efstat reports requests",
                      snapshot.get("requests_total", 0) >= 1, snapshot)
                check("efstat lists demo model",
                      any(m.get("name") == "demo"
                          for m in snapshot.get("models", [])), snapshot)
                check("efstat lists the odd-named model",
                      any(m.get("name") == ODD_NAME
                          for m in snapshot.get("models", [])), snapshot)
                check("efstat reports quality panel",
                      snapshot.get("quality_armed") is True
                      and any(q.get("model") == "demo"
                              for q in snapshot.get("quality", [])), snapshot)
            except json.JSONDecodeError:
                check("efstat output is JSON", False, stat.stdout[:120])

            stat_trace = subprocess.run(
                [efstat, "--port", str(port), "--trace"],
                capture_output=True, text=True, timeout=30)
            check("efstat --trace exits 0", stat_trace.returncode == 0,
                  stat_trace.stderr)
            check("efstat --trace shows stage breakdown",
                  "cache" in stat_trace.stdout and "match" in stat_trace.stdout,
                  stat_trace.stdout[:200])

        client.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            check("graceful shutdown", False, "timed out")
    check("clean exit code", proc.returncode == 0, proc.returncode)

    # --trace-out is written at shutdown: validate the file the same way
    # Perfetto would load it. Every request was a slow exemplar, so the
    # full span trees must be present.
    check("trace file written", os.path.exists(trace_path), trace_path)
    if os.path.exists(trace_path):
        try:
            with open(trace_path) as f:
                file_doc = json.load(f)
        except json.JSONDecodeError as err:
            file_doc = None
            check("trace file is JSON", False, str(err))
        if file_doc is not None:
            problems = check_trace_json.validate(file_doc, min_span_names=4,
                                                 require_slow=True)
            check("trace file valid", not problems, problems[:3])

    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed: {FAILURES}")
        return 1
    print("all serve smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
