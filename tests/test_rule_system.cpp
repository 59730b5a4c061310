// Tests for core/rule_system.hpp: vote averaging, abstention, coverage,
// serialisation round-trip, and the coverage-driven multi-execution trainer.
#include "core/rule_system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "core/evolution.hpp"
#include "oracle/paper_oracle.hpp"
#include "series/timeseries.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::core::RuleSystemConfig;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

Rule constant_rule(std::vector<Interval> genes, double prediction, double fitness = 1.0) {
  Rule r(std::move(genes));
  ef::core::PredictingPart part;
  part.fit.coeffs.assign(r.window() + 1, 0.0);
  part.fit.coeffs.back() = prediction;
  part.fit.mean_prediction = prediction;
  part.matches = 5;
  part.fitness = fitness;
  r.set_predicting(part);
  return r;
}

TEST(RuleSystem, EmptySystemAbstains) {
  const RuleSystem system;
  EXPECT_TRUE(system.empty());
  EXPECT_FALSE(system.forecast(std::vector<double>{1.0, 2.0}).as_optional().has_value());
}

TEST(RuleSystem, SingleRulePredicts) {
  RuleSystem system;
  system.add_rules({constant_rule({Interval(0, 10), Interval(0, 10)}, 42.0)}, false, -1.0);
  const auto p = system.forecast(std::vector<double>{5.0, 5.0}).as_optional();
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 42.0);
}

TEST(RuleSystem, OutputIsMeanOfMatchingRules) {
  RuleSystem system;
  system.add_rules({constant_rule({Interval(0, 10), Interval(0, 10)}, 10.0),
                    constant_rule({Interval(0, 10), Interval(0, 10)}, 20.0),
                    constant_rule({Interval(50, 60), Interval(50, 60)}, 99.0)},
                   false, -1.0);
  const auto p = system.forecast(std::vector<double>{5.0, 5.0}).as_optional();
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(*p, 15.0);  // third rule doesn't match
  EXPECT_EQ(system.forecast(std::vector<double>{5.0, 5.0}).votes, 2u);
  EXPECT_EQ(system.voters(std::vector<double>{5.0, 5.0}), (std::vector<std::size_t>{0, 1}));
}

TEST(RuleSystem, AbstainsOutsideAllRules) {
  RuleSystem system;
  system.add_rules({constant_rule({Interval(0, 10), Interval(0, 10)}, 1.0)}, false, -1.0);
  EXPECT_FALSE(system.forecast(std::vector<double>{50.0, 50.0}).as_optional().has_value());
  EXPECT_EQ(system.forecast(std::vector<double>{50.0, 50.0}).votes, 0u);
  EXPECT_TRUE(system.voters(std::vector<double>{50.0, 50.0}).empty());
}

TEST(RuleSystem, DiscardUnfitFiltersFMinRules) {
  RuleSystem system;
  system.add_rules({constant_rule({Interval(0, 1)}, 1.0, -1.0),   // f_min: dropped
                    constant_rule({Interval(0, 1)}, 2.0, 0.5)},   // kept
                   true, -1.0);
  EXPECT_EQ(system.size(), 1u);
}

TEST(RuleSystem, UnevaluatedRulesAlwaysDropped) {
  RuleSystem system;
  std::vector<Rule> rules;
  rules.emplace_back(std::vector<Interval>{Interval(0, 1)});  // no predicting part
  system.add_rules(std::move(rules), false, -1.0);
  EXPECT_EQ(system.size(), 0u);
}

TEST(RuleSystem, ForecastDatasetMarksAbstentions) {
  // Ramp 0..9: rules cover only windows whose first value <= 3.
  std::vector<double> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const WindowDataset data(TimeSeries(std::move(v)), 2, 1);
  RuleSystem system;
  system.add_rules({constant_rule({Interval(0, 3), Interval::wildcard()}, 7.0)}, false, -1.0);
  const auto forecast = system.forecast_dataset(data);
  ASSERT_EQ(forecast.size(), data.count());
  for (std::size_t i = 0; i < forecast.size(); ++i) {
    EXPECT_EQ(forecast[i].has_value(), i <= 3) << i;
  }
}

TEST(RuleSystem, CoveragePercent) {
  std::vector<double> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};  // 8 windows with D=2,τ=1
  const WindowDataset data(TimeSeries(std::move(v)), 2, 1);
  RuleSystem system;
  system.add_rules({constant_rule({Interval(0, 3), Interval::wildcard()}, 7.0)}, false, -1.0);
  EXPECT_DOUBLE_EQ(system.coverage_percent(data), 100.0 * 4.0 / 8.0);
}

/// Random rule of window `d` with a constant predicting part; each gene is
/// a wildcard with probability `wildcard_prob`, else a raw random interval.
Rule random_rule(std::size_t d, double wildcard_prob, ef::util::Rng& rng) {
  std::vector<Interval> genes;
  for (std::size_t j = 0; j < d; ++j) {
    if (rng.bernoulli(wildcard_prob)) {
      genes.push_back(Interval::wildcard());
      continue;
    }
    double a = rng.uniform(0.0, 1.0);
    double b = rng.uniform(0.0, 1.0);
    if (a > b) std::swap(a, b);
    genes.emplace_back(a, b);
  }
  return constant_rule(std::move(genes), rng.uniform(0.0, 1.0));
}

TEST(RuleSystem, CoverageAgreesWithOracleOnRandomRuleSets) {
  // Differential: coverage_percent runs the batched rule-major kernel; the
  // paper oracle's voters are the per-rule scalar predicate. The rule sets
  // mix in wrong-dimension rules, all-wildcard rules and non-predicting rules
  // (add_rules drops the latter, so they must not count). NaN windows cannot
  // reach a WindowDataset (TimeSeries rejects them); the ForecastBatch tests
  // drive the same kernel with NaN windows.
  ef::util::Rng rng(2024);
  std::vector<double> v(7000);
  for (double& x : v) x = rng.uniform(0.0, 1.0);
  const TimeSeries series(std::move(v));
  ef::util::ThreadPool pool(4);
  for (const std::size_t d : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    const WindowDataset data(series, d, 1);
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<Rule> rules;
      const std::size_t n = 1 + rng.index(70);
      for (std::size_t r = 0; r < n; ++r) {
        rules.push_back(random_rule(d, 0.2 * static_cast<double>(r % 4), rng));
      }
      rules.push_back(random_rule(d + 1, 0.5, rng));   // wrong dimension
      if (d > 1) rules.push_back(random_rule(d - 1, 0.5, rng));
      rules.emplace_back(std::vector<Interval>(d, Interval::wildcard()));  // non-predicting
      if (trial % 2 == 1) {
        rules.push_back(constant_rule(std::vector<Interval>(d, Interval::wildcard()), 0.5));
      }
      RuleSystem system;
      system.add_rules(std::move(rules), false, -1.0);

      std::size_t covered = 0;
      for (std::size_t i = 0; i < data.count(); ++i) {
        if (!ef::oracle::voters(system.rules(), data.pattern(i)).empty()) ++covered;
      }
      const double expected =
          100.0 * static_cast<double>(covered) / static_cast<double>(data.count());
      EXPECT_EQ(system.coverage_percent(data), expected) << "d=" << d << " trial=" << trial;
      EXPECT_EQ(system.coverage_percent(data, &pool), expected)
          << "d=" << d << " trial=" << trial << " (4 workers)";
    }
  }
}

TEST(RuleSystem, SaveLoadRoundTrip) {
  RuleSystem original;
  original.add_rules(
      {constant_rule({Interval(0.5, 10.25), Interval::wildcard()}, 42.125, 3.5),
       constant_rule({Interval(-3, -1), Interval(7, 8)}, -0.75, 1.25)},
      false, -10.0);

  std::stringstream buffer;
  original.save(buffer);
  const RuleSystem loaded = RuleSystem::load(buffer);

  ASSERT_EQ(loaded.size(), original.size());
  // Same predictions on probe windows.
  const std::vector<double> probe1{5.0, 123.0};
  const std::vector<double> probe2{-2.0, 7.5};
  EXPECT_EQ(loaded.forecast(probe1).as_optional().has_value(), original.forecast(probe1).as_optional().has_value());
  EXPECT_DOUBLE_EQ(*loaded.forecast(probe1).as_optional(), *original.forecast(probe1).as_optional());
  EXPECT_DOUBLE_EQ(*loaded.forecast(probe2).as_optional(), *original.forecast(probe2).as_optional());
  // Stats preserved.
  EXPECT_DOUBLE_EQ(loaded.rules()[0].fitness(), 3.5);
  EXPECT_EQ(loaded.rules()[0].predicting()->matches, 5u);
}

TEST(RuleSystem, SaveLoadPreservesHyperplaneCoefficients) {
  Rule r({Interval(0, 1), Interval(0, 1)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {1.5, -2.5, 0.125};
  part.fit.mean_prediction = 0.7;
  part.fit.max_abs_residual = 0.01;
  part.matches = 9;
  part.fitness = 2.0;
  r.set_predicting(part);
  RuleSystem original;
  original.add_rules({std::move(r)}, false, -1.0);

  std::stringstream buffer;
  original.save(buffer);
  const RuleSystem loaded = RuleSystem::load(buffer);
  const std::vector<double> w{0.5, 0.25};
  EXPECT_DOUBLE_EQ(*loaded.forecast(w).as_optional(), 1.5 * 0.5 - 2.5 * 0.25 + 0.125);
}

TEST(RuleSystem, LoadRejectsBadHeader) {
  std::stringstream buffer("not-a-rules-file\n0\n");
  EXPECT_THROW((void)RuleSystem::load(buffer), std::runtime_error);
}

TEST(RuleSystem, LoadRejectsTruncatedFile) {
  std::stringstream buffer("evoforecast-rules v1\n2\n1 0 1");
  EXPECT_THROW((void)RuleSystem::load(buffer), std::runtime_error);
}

// ---- train ------------------------------------------------------------------

TEST(TrainRuleSystem, ReachesCoverageTargetOnEasySeries) {
  ef::util::Rng rng(31);
  std::vector<double> v(500);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(static_cast<double>(i) * 0.15) + rng.normal(0.0, 0.02);
  }
  const WindowDataset data(TimeSeries(std::move(v)), 4, 1);

  RuleSystemConfig cfg;
  cfg.evolution.population_size = 25;
  cfg.evolution.generations = 400;
  cfg.evolution.emax = 0.4;
  cfg.evolution.seed = 13;
  cfg.coverage_target_percent = 60.0;
  cfg.max_executions = 4;

  const auto result = ef::core::train(data, {.config = cfg});
  EXPECT_GE(result.executions, 1u);
  EXPECT_LE(result.executions, 4u);
  EXPECT_GE(result.train_coverage_percent, 60.0);
  EXPECT_FALSE(result.system.empty());
}

TEST(TrainRuleSystem, CoverageMonotonicallyNonDecreasing) {
  ef::util::Rng rng(32);
  std::vector<double> v(400);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = rng.uniform(0.0, 1.0);
  const WindowDataset data(TimeSeries(std::move(v)), 3, 1);

  RuleSystemConfig cfg;
  cfg.evolution.population_size = 15;
  cfg.evolution.generations = 100;
  cfg.evolution.emax = 0.9;
  cfg.evolution.seed = 14;
  cfg.coverage_target_percent = 100.0;  // force all executions
  cfg.max_executions = 3;

  const auto result = ef::core::train(data, {.config = cfg});
  for (std::size_t i = 1; i < result.coverage_per_execution.size(); ++i) {
    EXPECT_GE(result.coverage_per_execution[i], result.coverage_per_execution[i - 1] - 1e-9);
  }
}

TEST(TrainRuleSystem, Deterministic) {
  ef::util::Rng rng(33);
  std::vector<double> v(300);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = std::sin(static_cast<double>(i) * 0.3) + rng.normal(0.0, 0.05);
  }
  const TimeSeries s(std::move(v));
  const WindowDataset data(s, 3, 1);

  RuleSystemConfig cfg;
  cfg.evolution.population_size = 12;
  cfg.evolution.generations = 150;
  cfg.evolution.emax = 0.3;
  cfg.evolution.seed = 15;
  cfg.max_executions = 2;
  cfg.coverage_target_percent = 100.0;

  const auto a = ef::core::train(data, {.config = cfg});
  const auto b = ef::core::train(data, {.config = cfg});
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_DOUBLE_EQ(a.train_coverage_percent, b.train_coverage_percent);
  ASSERT_EQ(a.system.size(), b.system.size());
}

TEST(TrainRuleSystem, InvalidConfigThrows) {
  const TimeSeries s(std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7});
  const WindowDataset data(s, 3, 1);
  RuleSystemConfig cfg;
  cfg.max_executions = 0;
  EXPECT_THROW((void)ef::core::train(data, {.config = cfg}), std::invalid_argument);
  cfg = RuleSystemConfig{};
  cfg.coverage_target_percent = 150.0;
  EXPECT_THROW((void)ef::core::train(data, {.config = cfg}), std::invalid_argument);
}

}  // namespace
