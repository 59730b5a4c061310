// Differential tests against the paper oracle (tests/oracle/paper_oracle.hpp):
// a naive transcription of the paper's algorithm that shares no code with
// src/core. The library's training must produce the oracle's rule set —
// saved text equal byte for byte — and the library's forecasts must equal
// the oracle's mean votes, value and abstention, on every pool size and both
// training schedules. A further case checks every match kernel on the rule
// set of a trained Mackey-Glass system against the oracle's scalar match.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/fitness.hpp"
#include "core/match_backend.hpp"
#include "core/match_engine.hpp"
#include "core/rule_system.hpp"
#include "oracle/paper_oracle.hpp"
#include "series/mackey_glass.hpp"
#include "series/sunspot.hpp"
#include "series/venice.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::core::TrainParallelism;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

/// The same parameters, as the library reads them.
ef::core::RuleSystemConfig to_core(const ef::oracle::Config& c) {
  ef::core::RuleSystemConfig cfg;
  cfg.evolution.population_size = c.population_size;
  cfg.evolution.generations = c.generations;
  cfg.evolution.emax = c.emax;
  cfg.evolution.f_min = c.f_min;
  cfg.evolution.tournament_rounds = c.tournament_rounds;
  cfg.evolution.mutation_prob = c.mutation_prob;
  cfg.evolution.mutation_scale = c.mutation_scale;
  cfg.evolution.wildcard_toggle_prob = c.wildcard_toggle_prob;
  cfg.evolution.seed = c.seed;
  cfg.coverage_target_percent = c.coverage_target_percent;
  cfg.max_executions = c.max_executions;
  cfg.discard_unfit = c.discard_unfit;
  return cfg;
}

std::string saved(const RuleSystem& system) {
  std::ostringstream out;
  system.save(out);
  return out.str();
}

/// Train with the oracle once, then with the library on pools of 1 and 4
/// workers under both schedules, and require the same rules, executions,
/// coverage and forecasts every time. Returns the oracle's result.
ef::oracle::Result expect_library_matches_oracle(const TimeSeries& train,
                                                 const TimeSeries& test, std::size_t d,
                                                 std::size_t horizon,
                                                 const ef::oracle::Config& config) {
  const ef::oracle::Windows oracle_train = ef::oracle::make_windows(train.values(), d, horizon);
  const ef::oracle::Windows oracle_test = ef::oracle::make_windows(test.values(), d, horizon);
  const ef::oracle::Result expected = ef::oracle::train(oracle_train, config);
  EXPECT_FALSE(expected.rules.empty());
  const std::vector<std::optional<double>> expected_forecast =
      ef::oracle::forecast(expected.rules, oracle_test);

  RuleSystem oracle_system;
  oracle_system.add_rules(expected.rules, /*discard_unfit=*/false, config.f_min);
  EXPECT_EQ(oracle_system.size(), expected.rules.size());
  const std::string expected_text = saved(oracle_system);

  const WindowDataset train_data(train, d, horizon);
  const WindowDataset test_data(test, d, horizon);
  EXPECT_EQ(train_data.count(), oracle_train.x.size());
  EXPECT_EQ(test_data.count(), oracle_test.x.size());

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ef::util::ThreadPool pool(workers);
    for (const TrainParallelism schedule :
         {TrainParallelism::kSequential, TrainParallelism::kIslands}) {
      SCOPED_TRACE(testing::Message()
                   << "workers=" << workers << " islands="
                   << (schedule == TrainParallelism::kIslands));
      const ef::core::TrainResult result = ef::core::train(
          train_data, {.config = to_core(config), .pool = &pool, .parallelism = schedule});
      EXPECT_EQ(saved(result.system), expected_text);
      EXPECT_EQ(result.executions, expected.executions);
      EXPECT_EQ(result.coverage_per_execution, expected.coverage_per_execution);

      const ef::series::PartialForecast got = result.system.forecast_dataset(test_data, &pool);
      EXPECT_EQ(got, expected_forecast);
    }
  }
  return expected;
}

TEST(Oracle, MackeyGlassTrainingAndForecastsMatchLibrary) {
  const auto mg = ef::series::make_paper_mackey_glass();
  ef::oracle::Config config;
  config.population_size = 20;
  config.generations = 400;
  config.emax = 0.05;
  config.seed = 71;
  config.max_executions = 3;
  config.coverage_target_percent = 100.0;
  // The paper's delay embedding: D = 4, τ = 6. The target is out of reach,
  // so every execution is unioned.
  const ef::oracle::Result r = expect_library_matches_oracle(mg.train, mg.test, 4, 6, config);
  EXPECT_EQ(r.executions, config.max_executions);
}

TEST(Oracle, SunspotTrainingAndForecastsMatchLibrary) {
  const auto sun = ef::series::make_paper_sunspots();
  ef::oracle::Config config;
  config.population_size = 16;
  config.generations = 300;
  config.emax = 0.18;
  config.seed = 5;
  config.max_executions = 5;
  config.coverage_target_percent = 85.0;
  // The target is met before max_executions, so on 4 workers the island
  // schedule starts executions past the prefix and must cancel them.
  const ef::oracle::Result r =
      expect_library_matches_oracle(sun.train, sun.validation, 9, 1, config);
  EXPECT_GT(r.executions, 1u);
  EXPECT_LT(r.executions, config.max_executions);
}

TEST(Oracle, VeniceTrainingAndForecastsMatchLibrary) {
  const auto venice = ef::series::make_paper_venice(2000, 500);
  ef::oracle::Config config;
  config.population_size = 16;
  config.generations = 250;
  config.emax = 12.0;
  config.seed = 9;
  config.max_executions = 3;
  config.coverage_target_percent = 100.0;
  expect_library_matches_oracle(venice.train, venice.validation, 24, 1, config);
}

TEST(Oracle, RuleEvaluationMatchesEvaluator) {
  // Rule by rule, the library's match → fit → score equals the oracle's,
  // field for field, on Venice at D = 24, where the packed regression kernel
  // runs several vector-width chunks. Each random rule boxes a random window
  // with random half-widths, so the cases span solved fits over many rows,
  // constant fits over fewer than D + 2, and rules that match nothing.
  const auto venice = ef::series::make_paper_venice(2000, 500);
  const WindowDataset data(venice.train, 24, 1);
  const ef::oracle::Windows w = ef::oracle::make_windows(venice.train.values(), 24, 1);
  ef::oracle::Config config;
  config.emax = 12.0;
  const ef::core::EvolutionConfig core_config = to_core(config).evolution;
  ef::util::ThreadPool one(1);
  const ef::core::MatchEngine engine(data, &one);
  const ef::core::Evaluator evaluator(engine, core_config);

  ef::util::Rng rng(2024);
  std::size_t solved = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<double>& centre = w.x[rng.index(w.x.size())];
    std::vector<Interval> genes;
    for (std::size_t j = 0; j < 24; ++j) {
      if (!rng.bernoulli(0.3)) {
        genes.push_back(Interval::wildcard());
        continue;
      }
      const double half = rng.uniform(0.0, 0.4 * (w.value_max - w.value_min));
      genes.emplace_back(centre[j] - half, centre[j] + half);
    }
    // Now and then a gene above every value: the rule matches nothing.
    if (trial % 20 == 0) genes[0] = Interval(w.value_max + 1.0, w.value_max + 2.0);
    Rule expected(genes);
    Rule got(genes);
    ef::oracle::evaluate(expected, w, config);
    evaluator.evaluate(got);
    const auto& e = *expected.predicting();
    const auto& g = *got.predicting();
    SCOPED_TRACE(testing::Message() << "trial " << trial << " matches " << e.matches);
    EXPECT_EQ(g.matches, e.matches);
    EXPECT_EQ(g.fit.coeffs, e.fit.coeffs);
    EXPECT_EQ(g.fit.max_abs_residual, e.fit.max_abs_residual);
    EXPECT_EQ(g.fit.mean_prediction, e.fit.mean_prediction);
    EXPECT_EQ(g.fit.degenerate, e.fit.degenerate);
    EXPECT_EQ(g.fitness, e.fitness);
    if (!e.fit.degenerate) ++solved;
  }
  EXPECT_GT(solved, 50u);
  EXPECT_LT(solved, 150u);
}

TEST(Oracle, MatchKernelsAgreeOnTrainedMackeyGlassRules) {
  // The rule set of a trained Mackey-Glass system (D = 4, τ = 6) over a
  // 20 000-sample series: every kernel — the prefilter's SSE2 byte scan and
  // its AVX2 fused scan, the rule-major batch kernel — and MatchEngine's per
  // rule and batched entries, serial and chunked across 4 workers, return
  // the oracle's match sets.
  const TimeSeries series = ef::series::generate_mackey_glass(20000);
  const WindowDataset data(series, 4, 6);
  const WindowDataset train_data(series.slice(0, 3000), 4, 6);
  ef::core::RuleSystemConfig cfg;
  cfg.evolution.population_size = 50;
  cfg.evolution.generations = 300;
  cfg.evolution.emax = 0.06;
  cfg.evolution.seed = 7;
  cfg.max_executions = 1;
  const std::vector<Rule> rules = ef::core::train(train_data, {.config = cfg}).system.rules();
  ASSERT_FALSE(rules.empty());

  const ef::oracle::Windows w = ef::oracle::make_windows(series.values(), 4, 6);
  std::vector<std::vector<std::size_t>> expected;
  for (const Rule& rule : rules) expected.push_back(ef::oracle::match(rule.genes(), w));

  const ef::core::LagMajorView view = data.lag_major();
  for (const bool avx2 : {false, true}) {
    for (std::size_t r = 0; r < rules.size(); ++r) {
      std::vector<std::size_t> got;
      ef::core::matchkern::soa_prefilter_match(view, rules[r].genes(), 0, data.count(), got,
                                               nullptr, avx2);
      EXPECT_EQ(got, expected[r]) << "prefilter avx2=" << avx2 << " rule " << r;
    }
  }

  std::vector<std::span<const Interval>> genes;
  for (const Rule& rule : rules) genes.emplace_back(rule.genes());
  const ef::core::RulePlanes planes =
      ef::core::build_rule_planes(genes, data.window(), view.qmin, view.qinv);
  std::vector<std::vector<std::size_t>> batch(rules.size());
  ef::core::matchkern::rule_major_match(view, planes, 0, data.count(), batch);
  EXPECT_EQ(batch, expected) << "rule_major_match";

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ef::util::ThreadPool pool(workers);
    const ef::core::MatchEngine engine(data, &pool);
    EXPECT_EQ(engine.match_all(rules), expected) << "match_all workers=" << workers;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      EXPECT_EQ(engine.match_indices(rules[r]), expected[r])
          << "match_indices workers=" << workers << " rule " << r;
    }
  }
}

}  // namespace
