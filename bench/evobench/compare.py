#!/usr/bin/env python3
"""Validate evobench run records and compare two sets of them.

Usage:
  compare.py validate RUN.json...
      Check each record against BENCHMARK.json: every declared metric
      (end_to_end for untraced runs, per_layer for traced ones) is present
      with its declared unit, a finite value and a sample count, and the
      run length, scale and build/host stamp are there. Exit 1 on any
      problem.

  compare.py spread RUN.json...
      For one set of runs (typically one seed each): per workload and
      end-to-end metric, the median and the quartile spread (q3 - q1) as a
      share of the median, against the metric's bound.

  compare.py compare --base RUN.json... --head RUN.json... [--layers]
      Per workload and end-to-end metric: each side's median and quartiles
      and a verdict, then a count of each verdict. Exit 1 when any verdict
      is "worse", 2 when the two sets ran for different lengths or at
      different scales.

Verdicts, with the bound BENCHMARK.json declares for the metric:
  worse       the head median is worse than the base median by more than the
              bound (a share of the base median); when the base runs' own
              spread exceeds the bound, only if also every head run is worse
              than every base run
  better      the head wins at least nine tenths of the run pairs (ties count
              for neither) and the medians differ by more than the base
              runs' quartile spread; when the base spread exceeds the bound,
              only if every head run is better than every base run
  unresolved  the base spread exceeds the bound and neither of the above
  same        anything else
Runs pair by seed when both sides ran the same seeds, else in seed order.
Metrics in EXACT repeat exactly for a seed (coverage_pct: the models are
deterministic); when the runs pair by seed, their verdict is the median of
the paired changes against EXACT's absolute tolerance instead.
--layers also lists per-layer medians (no verdicts: layers have no bound).
"""
import json
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Metric -> the absolute change (in its unit) that counts between same-seed
# runs: half a point of the paper's percentage of prediction.
EXACT = {"coverage_pct": 0.5}


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def validate_run(record, bench):
    """Problems with one run record (empty list = valid)."""
    problems = []
    for key, kind in (("schema", str), ("workload", str), ("seed", int), ("trace", bool),
                      ("correct", bool), ("attempted", int), ("failed", int),
                      ("seconds", (int, float)), ("smoke", bool), ("metrics", dict),
                      ("build", dict), ("host", dict), ("argv", list), ("timestamp", str)):
        if not isinstance(record.get(key), kind):
            problems.append(f"missing or mistyped {key!r}")
    if problems:
        return problems
    if record["workload"] not in [w["name"] for w in bench["workloads"]]:
        problems.append(f"undeclared workload {record['workload']!r}")
    if record["attempted"] < 1 or record["failed"] < 0:
        problems.append("attempted must be >= 1 and failed >= 0")
    if not isinstance(record["build"].get("obs_enabled"), bool):
        problems.append("build stamp lacks obs_enabled")
    for key in ("nproc", "cpu"):
        if key not in record["host"]:
            problems.append(f"host stamp lacks {key}")
    declared = bench["per_layer"] if record["trace"] else bench["end_to_end"]
    for metric in declared:
        got = record["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} missing")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {metric['name']} has no finite value")
        if got.get("unit") != metric["unit"]:
            problems.append(f"metric {metric['name']} unit {got.get('unit')!r} "
                            f"!= declared {metric['unit']!r}")
        if not isinstance(got.get("samples"), int) or got["samples"] < 1:
            problems.append(f"metric {metric['name']} lacks a sample count")
    return problems


def load_runs(paths):
    runs = []
    for path in paths:
        record = json.loads(Path(path).read_text())
        record["_path"] = str(path)
        runs.append(record)
    return runs


def by_workload(runs, traced=False):
    groups = {}
    for run in runs:
        if run["trace"] == traced:
            groups.setdefault(run["workload"], []).append(run)
    for group in groups.values():
        group.sort(key=lambda r: r["seed"])
    return groups


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread_share(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(base, head, metric, same_seeds):
    """Verdict for one metric from the base and head value lists (paired)."""
    direction = metric["better"]
    sign = -1 if direction == "higher" else 1
    if same_seeds and metric["name"] in EXACT:
        worse_by = sign * statistics.median(h - b for b, h in zip(base, head))
        tolerance = EXACT[metric["name"]]
        return "worse" if worse_by > tolerance else "better" if -worse_by > tolerance else "same"
    bound = metric["bound"]
    base_q1, base_median, base_q3 = quartiles(base)
    head_median = quartiles(head)[1]
    worse_by = sign * (head_median - base_median) / abs(base_median)
    if spread_share(base) > bound:
        if all(better(h, b, direction) for h in head for b in base):
            return "better"
        if worse_by > bound and all(better(b, h, direction) for h in head for b in base):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(better(h, b, direction) for b, h in zip(base, head))
    if wins >= 0.9 * len(base) and abs(head_median - base_median) > base_q3 - base_q1:
        return "better"
    return "same"


def paired(base_runs, head_runs):
    """(base, head, same_seeds): the runs paired up, both sorted by seed."""
    base_seeds = [r["seed"] for r in base_runs]
    if base_seeds == [r["seed"] for r in head_runs]:
        return base_runs, head_runs, True
    n = min(len(base_runs), len(head_runs))
    return base_runs[:n], head_runs[:n], False


def values(runs, name):
    return [run["metrics"][name]["value"] for run in runs]


def fmt(value):
    return f"{value:.6g}"


def fmt_quartiles(values):
    q1, q2, q3 = quartiles(values)
    return f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]"


def cmd_validate(paths, bench):
    bad = 0
    for run in load_runs(paths):
        problems = validate_run(run, bench)
        if not run["correct"]:
            problems.append(f"run was not correct: {run.get('failures')}")
        for problem in problems:
            print(f"  [FAIL] {run['_path']}: {problem}")
        bad += bool(problems)
    print(f"compare.py validate: {len(paths) - bad}/{len(paths)} records ok")
    return 1 if bad else 0


def cmd_spread(paths, bench):
    over = 0
    for workload, runs in sorted(by_workload(load_runs(paths)).items()):
        print(f"{workload} ({len(runs)} runs, seeds {[r['seed'] for r in runs]})")
        for metric in bench["end_to_end"]:
            vals = values(runs, metric["name"])
            share = spread_share(vals)
            state = "ok" if share <= metric["bound"] / 3 else (
                "within bound" if share <= metric["bound"] else "OVER BOUND")
            if metric["name"] != "setup_s" and share > metric["bound"]:
                over += 1
            print(f"  {metric['name']:<16} median {fmt(quartiles(vals)[1]):>12} "
                  f"{metric['unit']:<6} spread {share:7.2%}  bound {metric['bound']:.0%}  {state}")
    return 1 if over else 0


def cmd_compare(base_paths, head_paths, layers, bench):
    base_all, head_all = load_runs(base_paths), load_runs(head_paths)
    settings = {(run["seconds"], run["smoke"]) for run in base_all + head_all}
    if len(settings) > 1:
        print(f"compare.py: runs differ in (seconds, smoke): {sorted(settings)}; "
              "compare runs of the same length and scale")
        return 2
    base_groups, head_groups = by_workload(base_all), by_workload(head_all)
    counts = {"worse": 0, "unresolved": 0, "better": 0, "same": 0}
    for workload in sorted(set(base_groups) & set(head_groups)):
        base_runs, head_runs, same_seeds = paired(base_groups[workload], head_groups[workload])
        print(f"{workload}: base {len(base_runs)} runs, head {len(head_runs)} runs"
              f"{', paired by seed' if same_seeds else ''}")
        print(f"  {'metric':<16} {'unit':<6} {'base median [q1, q3]':<40} "
              f"{'head median [q1, q3]':<40} {'change':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            base = values(base_runs, metric["name"])
            head = values(head_runs, metric["name"])
            result = verdict(base, head, metric, same_seeds)
            counts[result] += 1
            change = (quartiles(head)[1] - quartiles(base)[1]) / abs(quartiles(base)[1])
            print(f"  {metric['name']:<16} {metric['unit']:<6} {fmt_quartiles(base):<40} "
                  f"{fmt_quartiles(head):<40} {change:+8.2%} {metric['bound']:6.0%}  {result}")
    print("verdicts: " + ", ".join(f"{n} {name}" for name, n in counts.items()))
    if layers:
        base_traced = by_workload(load_runs(base_paths), traced=True)
        head_traced = by_workload(load_runs(head_paths), traced=True)
        for workload in sorted(set(base_traced) & set(head_traced)):
            print(f"{workload} layers (medians, no verdicts)")
            for metric in bench["per_layer"]:
                b = statistics.median(values(base_traced[workload], metric["name"]))
                h = statistics.median(values(head_traced[workload], metric["name"]))
                print(f"  {metric['name']:<36} {fmt(b):>12} -> {fmt(h):>12} {metric['unit']}")
    return 1 if counts["worse"] else 0


def main(argv):
    bench = load_benchmark()
    if len(argv) >= 2 and argv[0] == "validate":
        return cmd_validate(argv[1:], bench)
    if len(argv) >= 2 and argv[0] == "spread":
        return cmd_spread(argv[1:], bench)
    if argv and argv[0] == "compare" and "--base" in argv and "--head" in argv:
        layers = "--layers" in argv
        rest = [a for a in argv[1:] if a != "--layers"]
        i, j = rest.index("--base"), rest.index("--head")
        base = rest[i + 1:j] if i < j else rest[i + 1:]
        head = rest[j + 1:] if i < j else rest[j + 1:i]
        if base and head:
            return cmd_compare(base, head, layers, bench)
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
