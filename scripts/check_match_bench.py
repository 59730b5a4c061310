#!/usr/bin/env python3
"""Gate a bench_match_kernel run against the committed baseline (used by CI).

Usage: check_match_bench.py CURRENT_JSON [BASELINE_JSON]

BASELINE_JSON defaults to BENCH_match.json next to the repo root (one
directory above this script). The current run is typically --quick on a
noisy shared runner while the baseline is a full run on a quiet box, so
the throughput thresholds are deliberately generous — this is a smoke
gate against order-of-magnitude regressions and correctness bugs, not a
performance tracker.

Checks, in order of severity:
  1. match_sets_identical must be true (hard correctness failure).
  2. train.rule_systems_identical must be true when the current run has a
     train section (the batched fitness path must be bit-exact end to end).
  3. soa_prefilter speedup vs scalar must stay >= MIN_SPEEDUP (1.5x;
     the committed baseline demonstrates ~2.4x).
  4. The AVX2-class kernels must not regress to the SSE2 one: avx2 and
     rule_major speedups >= MIN_AVX2_RATIO of soa_prefilter's. (On a
     runner without AVX2 the kernels legitimately alias the SSE2 path,
     so the floor is below 1.0; the committed baseline is separately held
     to avx2 and rule_major >= 1.5x soa_prefilter — the acceptance-level
     separation demonstrated on quiet hardware with real AVX2.)
  5. Each backend's windows/s must stay >= MIN_THROUGHPUT_RATIO (0.25)
     of the baseline's.
  6. train.train_speedup must carry a sane value: structure present,
     > MIN_TRAIN_SPEEDUP on the committed baseline, and within a loose
     sanity band (> 0.5x) on live CI runs.
Exits non-zero on the first category that fails, after printing all checks.
"""
import json
import os
import sys

MIN_SPEEDUP = 1.5
MIN_THROUGHPUT_RATIO = 0.25
MIN_AVX2_RATIO = 0.7          # live runs: AVX2-class must stay near SSE2 or above
MIN_AVX2_RATIO_BASELINE = 1.5  # committed baseline: AVX2 vs SSE2 acceptance floor
MIN_TRAIN_SPEEDUP_LIVE = 0.5  # live runs: loose sanity band (CI noise, quick scale)
MIN_TRAIN_SPEEDUP_BASELINE = 1.3  # committed baseline: the acceptance floor

FAILURES = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    suffix = f": {detail}" if detail and not ok else ""
    print(f"  [{status}] {name}{suffix}")
    if not ok:
        FAILURES.append(name)


def main():
    if len(sys.argv) < 2 or len(sys.argv) > 3:
        print(__doc__)
        return 2
    current_path = sys.argv[1]
    baseline_path = (
        sys.argv[2]
        if len(sys.argv) == 3
        else os.path.join(os.path.dirname(__file__), "..", "BENCH_match.json")
    )

    def load(path, role):
        try:
            with open(path) as f:
                return json.load(f)
        except OSError as err:
            print(f"check_match_bench: cannot read {role} {path}: {err}")
        except json.JSONDecodeError as err:
            print(f"check_match_bench: {role} {path} is not valid JSON "
                  f"(line {err.lineno}, col {err.colno}): {err.msg}")
        return None

    current = load(current_path, "current run")
    baseline = load(baseline_path, "baseline")
    if current is None or baseline is None:
        return 2
    if not isinstance(current, dict) or not isinstance(baseline, dict):
        print("check_match_bench: expected a JSON object at the top level")
        return 2

    print(f"check_match_bench: {current_path} vs {baseline_path}")

    check(
        "match sets identical",
        current.get("match_sets_identical") is True,
        "backends disagree with the scalar reference — correctness bug",
    )

    speedups = current.get("speedup", {})
    speedup = speedups.get("soa_prefilter", 0.0)
    check(
        f"soa_prefilter speedup {speedup:.2f}x >= {MIN_SPEEDUP}x",
        speedup >= MIN_SPEEDUP,
        f"baseline has {baseline.get('speedup', {}).get('soa_prefilter', 0.0):.2f}x",
    )

    for name in ("avx2", "rule_major"):
        s = speedups.get(name)
        if s is None:
            check(f"speedup.{name} present", False, "missing from current run")
            continue
        floor = speedup * MIN_AVX2_RATIO
        check(
            f"{name} speedup {s:.2f}x >= {MIN_AVX2_RATIO} x soa_prefilter "
            f"({floor:.2f}x)",
            s >= floor,
        )

    for name, base in baseline.get("backends", {}).items():
        cur = current.get("backends", {}).get(name)
        if cur is None:
            check(f"backend {name} present", False, "missing from current run")
            continue
        floor = base["windows_per_sec"] * MIN_THROUGHPUT_RATIO
        check(
            f"{name} {cur['windows_per_sec']:.3e} windows/s >= "
            f"{MIN_THROUGHPUT_RATIO} x baseline ({floor:.3e})",
            cur["windows_per_sec"] >= floor,
        )

    # The committed baseline ran on quiet hardware with real AVX2, so it is
    # held to the acceptance-level separation between the AVX2-class kernels
    # and the SSE2 prefilter; live runs only get the loose floor above.
    base_speedups = baseline.get("speedup", {})
    base_prefilter = base_speedups.get("soa_prefilter", 0.0)
    for name in ("avx2", "rule_major"):
        bsp = base_speedups.get(name, 0.0)
        floor = base_prefilter * MIN_AVX2_RATIO_BASELINE
        check(
            f"baseline {name} speedup {bsp:.2f}x >= {MIN_AVX2_RATIO_BASELINE} x "
            f"soa_prefilter ({floor:.2f}x)",
            bsp >= floor,
        )

    # Train-path section. The committed baseline must demonstrate the
    # acceptance-level speedup with bit-identical rule systems; a live
    # (quick, noisy-runner) current run is only held to structure + a loose
    # sanity band.
    base_train = baseline.get("train")
    check("baseline has train section", isinstance(base_train, dict))
    if isinstance(base_train, dict):
        check(
            "baseline train rule systems identical",
            base_train.get("rule_systems_identical") is True,
            "batched fitness path diverged from the per-rule path",
        )
        bs = base_train.get("train_speedup", 0.0)
        check(
            f"baseline train_speedup {bs:.2f}x >= {MIN_TRAIN_SPEEDUP_BASELINE}x",
            bs >= MIN_TRAIN_SPEEDUP_BASELINE,
        )

    cur_train = current.get("train")
    if cur_train is None:
        # A run invoked with --no-train-path has nothing to check here;
        # only flag it when the baseline says the section should exist.
        print("  [--] current run has no train section (--no-train-path)")
    elif not isinstance(cur_train, dict):
        check("train section well-formed", False, "not an object")
    else:
        check(
            "train rule systems identical",
            cur_train.get("rule_systems_identical") is True,
            "batched fitness path diverged from the per-rule path",
        )
        for key in ("seconds_per_rule", "seconds_rule_major", "train_speedup"):
            check(f"train.{key} present", isinstance(cur_train.get(key), (int, float)))
        ts = cur_train.get("train_speedup", 0.0)
        check(
            f"train_speedup {ts:.2f}x >= {MIN_TRAIN_SPEEDUP_LIVE}x (sanity band)",
            isinstance(ts, (int, float)) and ts >= MIN_TRAIN_SPEEDUP_LIVE,
            f"baseline has {base_train.get('train_speedup', 0.0) if isinstance(base_train, dict) else 0.0:.2f}x",
        )

    if FAILURES:
        print(f"check_match_bench: {len(FAILURES)} check(s) failed")
        return 1
    print("check_match_bench: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
