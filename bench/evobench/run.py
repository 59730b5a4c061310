#!/usr/bin/env python3
"""Build evobench from the repository sources and run its workloads.

Usage (from the repository root):

  python3 bench/evobench/run.py                         # all five workloads
  python3 bench/evobench/run.py --workload serve_compute --seed 3
  python3 bench/evobench/run.py --workload train_paper --trace 1
  python3 bench/evobench/run.py --build-dir build-obsoff   # measure that build
  python3 bench/evobench/run.py --smoke                 # seconds-long shape check

Options:
  --workload NAME   one of BENCHMARK.json's workloads, or "all" (default)
  --seed N          input seed (default 1)
  --seconds S       optional; must equal BENCHMARK.json's run_seconds, which
                    sets the measured length of every run
  --trace 0|1       1 = per-layer replay run instead of the end-to-end run
  --build-dir DIR   CMake build tree of bench/evobench (default
                    .bench_build/release). A fresh tree is configured Release
                    with default options; an existing tree keeps its options,
                    e.g. one configured with -DEVOFORECAST_OBS=OFF
  --binary PATH     run this evobench binary instead of building one
  --results DIR     where run records and traces go (default .bench_build/results)
  --smoke           every workload at smoke scale, traced and untraced; checks
                    the records against BENCHMARK.json and the traces with
                    scripts/check_trace_json.py

Each run writes its full record (metrics with sample counts, diagnostics,
failures, build and host stamp) to DIR/<workload>-s<seed>-t<trace>.json and
prints, as its last line, the summary the benchmark contract defines:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit status: 0 when every output was correct, 1 when a correctness gate
failed, 2 when the benchmark could not build or run.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
import compare  # noqa: E402

BINARY_TIMEOUT_S = 120
BUILD_JOBS = "4"


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (when needed) and build the evobench project; return the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no evoforecast sources under {ROOT}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "evobench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return build_dir / "bench" / "evobench"


def run_one(binary, results, workload, seed, seconds, trace, smoke=False):
    """Run one workload; return (record, trace path) or raise on breakage."""
    stem = f"{workload}-s{seed}-t{trace}" + ("-smoke" if smoke else "")
    record_path = results / f"{stem}.json"
    trace_path = results / f"{stem}.trace.json"
    for stale in (record_path, trace_path):
        stale.unlink(missing_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", str(results), "--out", str(record_path)]
    if trace:
        command += ["--trace-out", str(trace_path)]
    if smoke:
        command.append("--smoke")
    status = subprocess.run(command, timeout=BINARY_TIMEOUT_S).returncode
    if status not in (0, 1) or not record_path.is_file():
        raise RuntimeError(f"{workload}: evobench exited {status} without a run record")
    return json.loads(record_path.read_text()), trace_path


def contract_line(record, bench):
    declared = bench["per_layer"] if record["trace"] else bench["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in declared},
    }


def smoke(binary, results, bench):
    """Every workload, untraced and traced, at smoke scale."""
    checker = ROOT / "scripts" / "check_trace_json.py"
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            record, trace_path = run_one(binary, results, workload, 1, 1, trace, smoke=True)
            problems += [f"{workload} trace={trace}: {p}"
                         for p in compare.validate_run(record, bench)]
            if not record["correct"]:
                problems.append(f"{workload} trace={trace}: {record['failures']}")
            if trace and checker.is_file():
                check = subprocess.run([sys.executable, str(checker), "--min-span-names", "4",
                                        str(trace_path)], capture_output=True, text=True)
                if check.returncode != 0:
                    problems.append(f"{workload}: trace check failed: {check.stdout.strip()}")
    for problem in problems:
        print(f"  [FAIL] {problem}")
    print(f"evobench smoke: {'ok' if not problems else f'{len(problems)} problem(s)'}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir", type=Path, default=ROOT / ".bench_build" / "release")
    parser.add_argument("--binary", type=Path)
    parser.add_argument("--results", type=Path, default=ROOT / ".bench_build" / "results")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in bench["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload!r}; one of {names}")
        binary = args.binary.resolve() if args.binary else build(args.build_dir.resolve())
        results = args.results.resolve()
        results.mkdir(parents=True, exist_ok=True)
        if args.smoke:
            return smoke(binary, results, bench)

        seconds = bench["run_seconds"]
        if args.seconds is not None and args.seconds != seconds:
            raise RuntimeError(f"--seconds {args.seconds:g} differs from run_seconds {seconds}")
        workloads = names if args.workload == "all" else [args.workload]
        lines = {}
        for workload in workloads:
            record, _ = run_one(binary, results, workload, args.seed, seconds, args.trace)
            problems = compare.validate_run(record, bench)
            if problems:
                raise RuntimeError(f"{workload}: malformed run record: {problems}")
            lines[workload] = contract_line(record, bench)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as err:
        log(f"error: {err}")
        return 2

    if len(lines) == 1:
        summary = next(iter(lines.values()))
    else:
        summary = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{w}.{name}": value for w, line in lines.items()
                        for name, value in line["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
