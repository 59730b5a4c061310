// bench_match_kernel — match-kernel throughput on Mackey-Glass (D=4, τ=6).
//
// Trains a real rule system on a prefix of a long Mackey-Glass series
// (deterministic seed → identical rule sets across runs), then measures
// single-threaded match throughput of every kernel variant sweeping the full
// rule set over the full dataset, calling core/match_backend.hpp's
// matchkern:: functions directly: the scalar reference, the prefilter with
// its SSE2 byte scan, the prefilter with its AVX2 fused scan (the SSE2 one
// on a CPU without AVX2), and the rule-major batch kernel (plane build
// included). Before timing, every variant's match set — and MatchEngine's
// production kAuto path, per rule and batched — is checked index-for-index
// against the scalar serial reference: the contract is *bit-identical*
// match sets, so any divergence is a correctness bug and the bench exits
// non-zero — speed numbers for wrong answers are worthless.
//
// A second, end-to-end section times the *training path*: the same
// fixed-seed generational run with the scalar reference (kScalar, per-rule
// fitness loop) vs the production path (kAuto, rule-major batched fitness).
// The two runs must serialise to byte-identical rule systems (the fitness
// wiring is bit-exact, not just the kernels), and the ratio is reported as
// train_speedup.
//
// Output: a human-readable table plus (via --json) a machine-readable
// report with per-kernel windows/s, speedups vs scalar, and the train
// section. CI runs --quick and diffs against the committed baseline
// BENCH_match.json with scripts/check_match_bench.py.
//
// Flags:
//   --quick         scaled-down series/training/reps (CI smoke)
//   --series N      series length                (default 120000 / 20000 quick)
//   --generations N per-execution budget         (default 3000 / 300 quick)
//   --executions N  training executions unioned  (default 3 / 1 quick)
//   --reps N        timed sweeps per kernel      (default 5 / 7 quick)
//   --seed S        training seed                (default 7)
//   --no-train-path skip the end-to-end train comparison
//   --json PATH     write the JSON report
//   --trace-out PATH  write the training + sweep timeline as Chrome
//                     trace-event JSON (arms tracing at rate 1.0)
#include <chrono>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/match_backend.hpp"
#include "obs/build_info.hpp"
#include "obs/timeline.hpp"
#include "obs/timeline_export.hpp"
#include "core/generational.hpp"
#include "core/match_engine.hpp"
#include "core/rule_system.hpp"
#include "series/mackey_glass.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::core::Interval;
using ef::core::LagMajorView;
using ef::core::MatchBackend;
using ef::core::MatchEngine;
using ef::core::Rule;
using ef::core::WindowDataset;
namespace matchkern = ef::core::matchkern;

using MatchSets = std::vector<std::vector<std::size_t>>;

/// One kernel variant: a full-ruleset sweep over every window, out[r]
/// receiving rule r's ascending matches. Rules all carry the dataset's D
/// (they were trained on it).
struct Kernel {
  const char* name;
  void (*sweep)(const WindowDataset& data, const std::vector<Rule>& rules, MatchSets& out);
};

void sweep_scalar(const WindowDataset& data, const std::vector<Rule>& rules, MatchSets& out) {
  for (std::size_t r = 0; r < rules.size(); ++r) {
    matchkern::scalar_match(data.pattern(0).data(), data.window(), rules[r].genes(), 0,
                            data.count(), out[r]);
  }
}

template <bool Avx2>
void sweep_prefilter(const WindowDataset& data, const std::vector<Rule>& rules,
                     MatchSets& out) {
  const LagMajorView view = data.lag_major();
  for (std::size_t r = 0; r < rules.size(); ++r) {
    matchkern::soa_prefilter_match(view, rules[r].genes(), 0, data.count(), out[r], nullptr,
                                   Avx2);
  }
}

void sweep_rule_major(const WindowDataset& data, const std::vector<Rule>& rules,
                      MatchSets& out) {
  const LagMajorView view = data.lag_major();
  std::vector<std::span<const Interval>> genes;
  genes.reserve(rules.size());
  for (const Rule& rule : rules) genes.emplace_back(rule.genes());
  const ef::core::RulePlanes planes =
      ef::core::build_rule_planes(genes, data.window(), view.qmin, view.qinv);
  matchkern::rule_major_match(view, planes, 0, data.count(), out);
}

constexpr Kernel kKernels[] = {
    {"scalar", sweep_scalar},
    {"soa_prefilter", sweep_prefilter<false>},
    {"avx2", sweep_prefilter<true>},
    {"rule_major", sweep_rule_major},
};

struct KernelResult {
  const char* name = "";
  double seconds = 0.0;  ///< best (minimum) single-sweep wall time
  double windows_per_sec = 0.0;
  std::size_t matched = 0;  ///< total matches over one sweep (sanity anchor)
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed sweep; returns total matches (anchors the sweep against
/// dead-code elimination and sanity-checks reps against each other).
std::size_t run_sweep(const Kernel& kernel, const WindowDataset& data,
                      const std::vector<Rule>& rules, MatchSets& out) {
  for (auto& m : out) m.clear();
  kernel.sweep(data, rules, out);
  std::size_t matched = 0;
  for (const auto& m : out) matched += m.size();
  return matched;
}

}  // namespace

int main(int argc, char** argv) {
  const ef::util::Cli cli(argc, argv);
  const bool quick = cli.get_bool("quick");
  const auto series_len =
      static_cast<std::size_t>(cli.get_int("series", quick ? 20000 : 120000));
  const auto generations =
      static_cast<std::size_t>(cli.get_int("generations", quick ? 300 : 3000));
  const auto executions =
      static_cast<std::size_t>(cli.get_int("executions", quick ? 1 : 3));
  // Quick sweeps are ~1 ms, so extra reps are free and the min needs them
  // to be repeatable on a noisy CI box.
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", quick ? 7 : 5));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const bool train_path = !cli.get_bool("no-train-path");
  const std::string json_path = cli.get_string("json", "");
  const std::string trace_out = cli.get_string("trace-out", "");
  if (!trace_out.empty() && !ef::obs::Timeline::enabled()) {
    ef::obs::Timeline::set_sample_rate(1.0);
  }
  // Root trace covering training (generation spans land under it via
  // ef::core::train) and the timed backend sweeps below.
  const ef::obs::Span bench_trace("bench.match_kernel", ef::obs::kRoot);

  // The paper's Mackey-Glass embedding: D = 4 lags, horizon τ = 6.
  const auto series = ef::series::generate_mackey_glass(series_len);
  const WindowDataset data(series, 4, 6);
  const WindowDataset train_ds(series.slice(0, std::min<std::size_t>(3000, series_len)),
                               4, 6);

  ef::core::RuleSystemConfig cfg;
  cfg.evolution.population_size = 50;
  cfg.evolution.generations = generations;
  cfg.evolution.emax = 0.06;  // raw MG amplitude ≈ [0.2, 1.4]
  cfg.evolution.seed = seed;
  cfg.max_executions = executions;
  cfg.coverage_target_percent = 100.0;  // union every execution
  const auto trained = ef::core::train(train_ds, {.config = cfg});
  const std::vector<Rule>& rules = trained.system.rules();
  if (rules.empty()) {
    std::fprintf(stderr, "bench_match_kernel: training produced no rules\n");
    return 2;
  }

  std::printf("bench_match_kernel: %zu windows x %zu rules, %zu reps%s\n",
              data.count(), rules.size(), reps, quick ? " (quick)" : "");

  // Single-worker pool: m > the parallel grain, so a multi-worker pool would
  // measure chunking, not the kernels.
  ef::util::ThreadPool one(1);

  // Correctness gate first: every kernel variant and the production
  // engine path (per rule and batched) vs the scalar serial reference.
  const MatchEngine reference(data, &one, MatchBackend::kScalar);
  const MatchEngine production(data, &one, MatchBackend::kAuto);
  MatchSets expected(rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    expected[r] = reference.match_indices_serial(rules[r]);
  }
  bool identical = production.match_all(rules) == expected;
  for (std::size_t r = 0; identical && r < rules.size(); ++r) {
    identical = production.match_indices(rules[r]) == expected[r];
  }
  if (!identical) std::fprintf(stderr, "MATCH SET MISMATCH: MatchEngine kAuto\n");
  MatchSets got(rules.size());
  for (const Kernel& kernel : kKernels) {
    run_sweep(kernel, data, rules, got);
    if (got != expected) {
      std::fprintf(stderr, "MATCH SET MISMATCH: kernel=%s\n", kernel.name);
      identical = false;
    }
  }

  std::vector<KernelResult> results;
  for (const Kernel& kernel : kKernels) {
    ef::obs::Span sweep_span("bench.sweep");
    sweep_span.set_arg("kernel", static_cast<double>(results.size()));
    KernelResult r;
    r.name = kernel.name;
    r.matched = run_sweep(kernel, data, rules, got);  // warm
    // Per-rep minimum: the machine is shared, so total time over reps mixes
    // in scheduler noise; the fastest sweep is the most repeatable estimate
    // of what the kernel actually costs.
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const double t0 = now_seconds();
      const std::size_t matched = run_sweep(kernel, data, rules, got);
      const double dt = now_seconds() - t0;
      if (matched != r.matched) {
        std::fprintf(stderr, "UNSTABLE SWEEP: kernel=%s\n", kernel.name);
        identical = false;
      }
      if (rep == 0 || dt < r.seconds) r.seconds = dt;
    }
    const double scanned =
        static_cast<double>(rules.size()) * static_cast<double>(data.count());
    r.windows_per_sec = r.seconds > 0.0 ? scanned / r.seconds : 0.0;
    results.push_back(r);
    std::printf("  %-14s %8.3f s/sweep   %12.3e windows/s   (%zu matches/sweep)\n", r.name,
                r.seconds, r.windows_per_sec, r.matched);
  }

  const double scalar_wps = results[0].windows_per_sec;
  std::printf("  speedup: soa_prefilter %.2fx, avx2 %.2fx, rule_major %.2fx, match sets %s\n",
              results[1].windows_per_sec / scalar_wps,
              results[2].windows_per_sec / scalar_wps,
              results[3].windows_per_sec / scalar_wps,
              identical ? "identical" : "MISMATCH");

  // End-to-end train path: same seed, same offspring schedule, the scalar
  // reference with the per-rule fitness loop (kScalar, batched_fitness =
  // false) vs the production path (kAuto, rule-major batched fitness). The
  // generational engine is the shape where batching structurally applies —
  // every generation evaluates a whole offspring cohort, which the batched
  // path turns into one plane build + one window pass (the steady-state
  // engine only batches its initial populations). The two runs must
  // serialise to byte-identical rule systems (the fitness wiring is
  // bit-exact, not just the kernels), and the ratio is reported as
  // train_speedup. Larger slice than the rule-source training above so
  // evaluation (not operator bookkeeping) dominates, as it does at
  // production series lengths.
  double train_per_rule_s = 0.0;
  double train_rule_major_s = 0.0;
  double train_speedup = 0.0;
  bool train_identical = true;
  std::size_t train_windows = 0;
  if (train_path) {
    const std::size_t train_len = std::min<std::size_t>(quick ? 8000 : 30000, series_len);
    const WindowDataset path_ds(series.slice(0, train_len), 4, 6);
    train_windows = path_ds.count();
    ef::core::GenerationalConfig gen_cfg;
    gen_cfg.base = cfg.evolution;
    const std::size_t eval_budget = quick ? 1500 : 6000;

    std::string bytes_per_rule;
    std::string bytes_rule_major;
    for (const bool batched : {false, true}) {
      ef::core::GenerationalConfig run_cfg = gen_cfg;
      run_cfg.base.batched_fitness = batched;
      run_cfg.base.match_backend = batched ? MatchBackend::kAuto : MatchBackend::kScalar;
      const double t0 = now_seconds();
      ef::core::GenerationalEngine engine(path_ds, run_cfg, &one);
      engine.run_evaluations(eval_budget);
      const double dt = now_seconds() - t0;
      ef::core::RuleSystem system;
      system.add_rules(std::vector<Rule>(engine.population()), /*discard_unfit=*/true,
                       run_cfg.base.f_min);
      std::ostringstream buffer;
      system.save(buffer);
      (batched ? bytes_rule_major : bytes_per_rule) = buffer.str();
      (batched ? train_rule_major_s : train_per_rule_s) = dt;
    }
    train_identical = !bytes_per_rule.empty() && bytes_per_rule == bytes_rule_major;
    train_speedup =
        train_rule_major_s > 0.0 ? train_per_rule_s / train_rule_major_s : 0.0;
    std::printf("  train path (%zu windows, %zu evals): scalar %.3f s, "
                "auto %.3f s, speedup %.2fx, rule systems %s\n",
                train_windows, eval_budget, train_per_rule_s, train_rule_major_s,
                train_speedup, train_identical ? "identical" : "MISMATCH");
    if (!train_identical) identical = false;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_match_kernel: cannot write %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(f, "{\n");
    // Provenance stamp: which sources/toolchain produced these numbers.
    // check_match_bench.py ignores it; humans diffing baselines don't.
    std::fprintf(f, "  \"build\": %s,\n", ef::obs::build_info_json().c_str());
    std::fprintf(f,
                 "  \"config\": {\"series\": %zu, \"windows\": %zu, \"rules\": %zu, "
                 "\"reps\": %zu, \"quick\": %s, \"window\": 4, \"horizon\": 6},\n",
                 series_len, data.count(), rules.size(), reps,
                 quick ? "true" : "false");
    std::fprintf(f, "  \"backends\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::fprintf(f,
                   "    \"%s\": {\"seconds\": %.6f, \"windows_per_sec\": %.1f, "
                   "\"matches_per_sweep\": %zu}%s\n",
                   results[i].name, results[i].seconds, results[i].windows_per_sec,
                   results[i].matched, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"speedup\": {\"soa_prefilter\": %.3f, \"avx2\": %.3f, "
                 "\"rule_major\": %.3f},\n",
                 results[1].windows_per_sec / scalar_wps,
                 results[2].windows_per_sec / scalar_wps,
                 results[3].windows_per_sec / scalar_wps);
    if (train_path) {
      std::fprintf(f,
                   "  \"train\": {\"windows\": %zu, \"seconds_per_rule\": %.3f, "
                   "\"seconds_rule_major\": %.3f, \"train_speedup\": %.3f, "
                   "\"rule_systems_identical\": %s},\n",
                   train_windows, train_per_rule_s, train_rule_major_s, train_speedup,
                   train_identical ? "true" : "false");
    }
    std::fprintf(f, "  \"match_sets_identical\": %s\n", identical ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

  if (!trace_out.empty()) {
    if (ef::obs::write_chrome_trace_file(trace_out)) {
      std::printf("  trace: wrote %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "bench_match_kernel: cannot write %s\n", trace_out.c_str());
      return 2;
    }
  }

  return identical ? 0 : 1;
}
