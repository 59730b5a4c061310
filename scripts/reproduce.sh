#!/usr/bin/env bash
# Reproduce every table/figure/ablation of the paper and record the outputs.
#
#   scripts/reproduce.sh           # scaled-down defaults (~10 min laptop)
#   scripts/reproduce.sh --full    # paper-scale (hours)
#
# Results land in reproduction/<timestamp>/, one log per experiment, plus
# the CSV traces the figure benches emit.
set -euo pipefail

cd "$(dirname "$0")/.."
FULL_FLAG="${1:-}"

OUT="reproduction/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$OUT"

cmake -B build -G Ninja
cmake --build build

# Provenance manifest: which sources, toolchain, and host produced this
# reproduction. The per-bench metrics JSONs carry the same build stamp in
# their "build" section; manifest.json ties the whole directory together.
{
  echo "{"
  echo "  \"git_commit\": \"$(git rev-parse HEAD 2>/dev/null || echo unknown)\","
  echo "  \"git_dirty\": $(git diff --quiet 2>/dev/null && echo false || echo true),"
  echo "  \"date_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"host\": \"$(uname -srm)\","
  echo "  \"nproc\": $(nproc),"
  echo "  \"compiler\": \"$(c++ --version 2>/dev/null | head -1 | tr -d '"\\')\","
  echo "  \"mode\": \"${FULL_FLAG:-quick}\""
  echo "}"
} > "$OUT/manifest.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$OUT/manifest.json" \
  || echo "warning: manifest.json failed to validate"

echo "== tests ==" | tee "$OUT/tests.log"
ctest --test-dir build -j"$(nproc)" -LE bench 2>&1 | tee -a "$OUT/tests.log"

for bench in build/bench/*; do
  name="$(basename "$bench")"
  echo "== $name $FULL_FLAG =="
  # bench_micro_core takes google-benchmark flags, not --full. Every other
  # bench also emits its observability run report (docs/OBSERVABILITY.md):
  # the table goes into the log, the JSON next to it for machine analysis.
  # evobench takes its own workload flags; its smoke runs under ctest's
  # `bench` label (bench/evobench/README.md has the full-scale runs).
  if [[ "$name" == "evobench" ]]; then
    ctest --test-dir build -L bench --output-on-failure 2>&1 | tee "$OUT/$name.log"
  elif [[ "$name" == "bench_micro_core" ]]; then
    "$bench" 2>&1 | tee "$OUT/$name.log"
  else
    "$bench" $FULL_FLAG --report --metrics-json "$OUT/$name.metrics.json" \
      2>&1 | tee "$OUT/$name.log"
  fi
done

# Collect CSV traces emitted into the working directory by figure benches.
mv -f fig2_trace.csv convergence_trace.csv "$OUT"/ 2>/dev/null || true

echo
echo "done — outputs in $OUT/"
