// bench_micro_core — google-benchmark microbenchmarks of the engine's hot
// paths: window matching (pooled), rule evaluation (match +
// regression), one steady-state generation, and rule-system query
// throughput. These quantify the costs that justify the parallel match
// engine and bound full-scale run times.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/evolution.hpp"
#include "core/fitness.hpp"
#include "core/match_engine.hpp"
#include "core/rule_system.hpp"
#include "series/venice.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::core::Interval;
using ef::core::Rule;
using ef::core::WindowDataset;

/// Shared fixture data: one Venice series reused by every benchmark.
const WindowDataset& venice_dataset(std::size_t hours) {
  static const auto series = ef::series::generate_venice(50000);
  static const WindowDataset full(series, 24, 1);
  static const WindowDataset small_ds(series.slice(0, 10024), 24, 1);
  return hours > 20000 ? full : small_ds;
}

/// A mid-selectivity rule (first gene restricted to the upper tide band).
Rule probe_rule(const WindowDataset& data) {
  std::vector<Interval> genes(data.window(), Interval::wildcard());
  const double mid = 0.5 * (data.value_min() + data.value_max());
  genes[0] = Interval(mid, data.value_max());
  genes[12] = Interval(data.value_min(), mid + 20.0);
  return Rule(std::move(genes));
}

void BM_MatchParallel(benchmark::State& state) {
  const auto& data = venice_dataset(static_cast<std::size_t>(state.range(0)));
  static ef::util::ThreadPool pool;  // shared across iterations
  const ef::core::MatchEngine engine(data, &pool);
  const Rule rule = probe_rule(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.match_indices(rule));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.count()));
}
BENCHMARK(BM_MatchParallel)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

void BM_EvaluateRule(benchmark::State& state) {
  const auto& data = venice_dataset(static_cast<std::size_t>(state.range(0)));
  const ef::core::MatchEngine engine(data);
  ef::core::EvolutionConfig cfg;
  cfg.emax = 20.0;
  const ef::core::Evaluator evaluator(engine, cfg);
  for (auto _ : state) {
    Rule rule = probe_rule(data);
    evaluator.evaluate(rule);
    benchmark::DoNotOptimize(rule.fitness());
  }
}
BENCHMARK(BM_EvaluateRule)->Arg(10000)->Arg(50000)->Unit(benchmark::kMicrosecond);

void BM_SteadyStateGeneration(benchmark::State& state) {
  const auto& data = venice_dataset(10000);
  ef::core::EvolutionConfig cfg;
  cfg.population_size = 100;
  cfg.generations = 1U << 30;  // never reached; we drive step() manually
  cfg.emax = 20.0;
  cfg.seed = 9;
  ef::core::SteadyStateEngine engine(data, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.step());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SteadyStateGeneration)->Unit(benchmark::kMicrosecond);

void BM_RegressionFit(benchmark::State& state) {
  const auto& data = venice_dataset(10000);
  std::vector<std::size_t> rows(static_cast<std::size_t>(state.range(0)));
  std::iota(rows.begin(), rows.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ef::core::fit_hyperplane(data, rows));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RegressionFit)->Arg(100)->Arg(1000)->Arg(9000)->Unit(benchmark::kMicrosecond);

/// What the trainer fits: a rule's scattered match set, not a prefix. Keeps
/// a seeded ~29% of the first range(0) windows (evobench's
/// core.match.hit_ratio on train_paper), so the fit gathers its rows.
void BM_RegressionFitGathered(benchmark::State& state) {
  const auto& data = venice_dataset(10000);
  ef::util::Rng rng(29);
  std::vector<std::size_t> rows;
  for (std::size_t w = 0; w < static_cast<std::size_t>(state.range(0)); ++w) {
    if (rng.bernoulli(0.29)) rows.push_back(w);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ef::core::fit_hyperplane(data, rows));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_RegressionFitGathered)->Arg(2000)->Arg(10000)->Unit(benchmark::kMicrosecond);

/// Shared trained system for the query benchmarks (multi-execution union →
/// a realistic several-hundred-rule set).
const ef::core::RuleSystem& query_system() {
  static const ef::core::RuleSystem system = [] {
    const auto& d = venice_dataset(10000);
    ef::core::RuleSystemConfig cfg;
    cfg.evolution.population_size = 100;
    cfg.evolution.generations = 2000;
    cfg.evolution.emax = 20.0;
    cfg.max_executions = 4;
    cfg.coverage_target_percent = 100.0;
    return ef::core::train(d, {.config = cfg}).system;
  }();
  return system;
}

/// The serving path: single-window forecasts over planes compiled once.
void BM_CompiledQuery(benchmark::State& state) {
  const auto& data = venice_dataset(10000);
  const auto& system = query_system();
  const ef::core::RulePlanes planes = system.compile_planes(data.window());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.forecast(planes, data.pattern(i)).as_optional());
    i = (i + 1) % data.count();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(system.size()));
  state.counters["rules"] = static_cast<double>(system.size());
}
BENCHMARK(BM_CompiledQuery)->Unit(benchmark::kMicrosecond);

}  // namespace
