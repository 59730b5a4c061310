// Tests for RuleSystem::forecast_batch: exact element-by-element agreement
// with the paper oracle's voters (tests/oracle/expected_prediction.hpp) and
// with the single-window forecast across every aggregation mode, including
// abstention positions, vote counts and bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/rule_system.hpp"
#include "oracle/expected_prediction.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::core::Aggregation;
using ef::core::Interval;
using ef::core::Prediction;
using ef::core::Rule;
using ef::core::RuleSystem;

constexpr Aggregation kAllAggregations[] = {
    Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
    Aggregation::kBestRule, Aggregation::kInverseError};

Rule make_rule(std::vector<Interval> genes, std::vector<double> coeffs, double fitness,
               double error) {
  Rule r(std::move(genes));
  ef::core::PredictingPart part;
  part.fit.coeffs = std::move(coeffs);
  part.fit.mean_prediction = part.fit.coeffs.back();
  part.fit.max_abs_residual = error;
  part.matches = 7;
  part.fitness = fitness;
  r.set_predicting(part);
  return r;
}

/// A small overlapping rule set over [0,1]^3 with genuinely different
/// hyperplanes, so every aggregation mode produces distinct values.
RuleSystem make_system() {
  RuleSystem system;
  std::vector<Rule> rules;
  rules.push_back(make_rule({Interval(0.0, 0.5), Interval::wildcard(), Interval(0.0, 1.0)},
                            {0.3, -0.2, 0.1, 0.4}, 2.0, 0.05));
  rules.push_back(make_rule({Interval(0.2, 0.9), Interval(0.1, 0.8), Interval::wildcard()},
                            {-0.1, 0.5, 0.2, 0.1}, 3.5, 0.01));
  rules.push_back(make_rule({Interval::wildcard(), Interval(0.0, 0.6), Interval(0.3, 1.0)},
                            {0.0, 0.0, 1.0, 0.0}, 1.0, 0.2));
  rules.push_back(make_rule({Interval(0.6, 1.0), Interval(0.6, 1.0), Interval(0.6, 1.0)},
                            {0.1, 0.1, 0.1, 0.7}, 5.0, 0.005));
  system.add_rules(std::move(rules), /*discard_unfit=*/false, /*f_min=*/-1.0);
  return system;
}

bool same_double(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

/// Batch element and expected prediction agree exactly: abstention, votes,
/// value and bound (a NaN vote, from a NaN lag under a wildcard, makes both
/// NaN).
void expect_same(const Prediction& got, const Prediction& expected, std::size_t position) {
  ASSERT_EQ(got.abstained, expected.abstained) << "position " << position;
  ASSERT_EQ(got.votes, expected.votes) << "position " << position;
  if (!expected.abstained) {
    EXPECT_TRUE(same_double(got.value, expected.value)) << "position " << position;
    EXPECT_TRUE(same_double(got.bound, expected.bound)) << "position " << position;
  }
}

/// Random probe windows over a slightly enlarged range so a good fraction of
/// positions abstain.
std::vector<double> make_probes(std::size_t n, std::size_t window) {
  ef::util::Rng rng(42);
  std::vector<double> flat;
  flat.reserve(n * window);
  for (std::size_t i = 0; i < n * window; ++i) {
    flat.push_back(rng.uniform(-0.2, 1.4));
  }
  return flat;
}

TEST(ForecastBatch, MatchesSingleForecastAllAggregations) {
  const RuleSystem system = make_system();
  const std::size_t window = 3;
  const std::size_t n = 200;
  const std::vector<double> flat = make_probes(n, window);

  for (const Aggregation how : kAllAggregations) {
    const auto batch = system.forecast_batch(flat, window, how);
    ASSERT_EQ(batch.size(), n);

    std::size_t abstentions = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> w(flat.data() + i * window, window);
      const Prediction expected = ef::oracle::expected_prediction(system.rules(), w, how);
      expect_same(batch[i], expected, i);
      expect_same(system.forecast(w, how), expected, i);
      if (expected.abstained) ++abstentions;
    }
    EXPECT_GT(abstentions, 0u) << "probe set should include abstaining windows";
    EXPECT_LT(abstentions, n) << "probe set should include covered windows";
  }
}

TEST(ForecastBatch, MatchesPlainMeanForecast) {
  const RuleSystem system = make_system();
  const std::size_t window = 3;
  const std::vector<double> flat = make_probes(64, window);
  const auto batch = system.forecast_batch(flat, window);  // the paper's mean path
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::span<const double> w(flat.data() + i * window, window);
    expect_same(batch[i], ef::oracle::expected_prediction(system.rules(), w, Aggregation::kMean),
                i);
  }
}

TEST(ForecastBatch, ExplicitPoolMatchesSharedPool) {
  const RuleSystem system = make_system();
  ef::util::ThreadPool pool(2);
  const std::vector<double> flat = make_probes(100, 3);
  const auto with_pool = system.forecast_batch(flat, 3, Aggregation::kMean, &pool);
  const auto without = system.forecast_batch(flat, 3, Aggregation::kMean);
  ASSERT_EQ(with_pool.size(), without.size());
  for (std::size_t i = 0; i < with_pool.size(); ++i) {
    ASSERT_EQ(with_pool[i].abstained, without[i].abstained);
    if (!without[i].abstained) {
      EXPECT_EQ(with_pool[i].value, without[i].value);
    }
  }
}

TEST(ForecastBatch, EmptyBatchAndValidation) {
  const RuleSystem system = make_system();
  EXPECT_TRUE(system.forecast_batch({}, 3).empty());
  const std::vector<double> flat{0.1, 0.2, 0.3, 0.4};
  EXPECT_THROW((void)system.forecast_batch(flat, 0), std::invalid_argument);
  EXPECT_THROW((void)system.forecast_batch(flat, 3), std::invalid_argument);
}

TEST(ForecastBatch, NanWindowsAndMixedRuleSetsMatchOracle) {
  // Windows carrying NaN (a bounded gene rejects it, a wildcard accepts it)
  // against a rule set mixing wrong-dimension and all-wildcard rules: every
  // position's voters must be the oracle's.
  const std::size_t window = 3;
  RuleSystem system = make_system();
  system.add_rules({make_rule({Interval(0.0, 1.0), Interval(0.0, 1.0)}, {0.1, 0.2, 0.3}, 1.0,
                              0.1),  // wrong dimension
                    make_rule(std::vector<Interval>(window, Interval::wildcard()),
                              {0.0, 0.0, 0.0, 0.25}, 0.5, 0.3)},
                   /*discard_unfit=*/false, /*f_min=*/-1.0);
  std::vector<double> flat = make_probes(300, window);
  ef::util::Rng rng(7);
  for (std::size_t i = 0; i < flat.size(); i += 1 + rng.index(9)) {
    flat[i] = std::numeric_limits<double>::quiet_NaN();
  }
  for (const Aggregation how : kAllAggregations) {
    const auto batch = system.forecast_batch(flat, window, how);
    ASSERT_EQ(batch.size(), 300u);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::span<const double> w(flat.data() + i * window, window);
      const Prediction expected = ef::oracle::expected_prediction(system.rules(), w, how);
      expect_same(batch[i], expected, i);
      expect_same(system.forecast(w, how), expected, i);
    }
  }
}

TEST(ForecastBatch, EmptySystemAbstainsEverywhere) {
  const RuleSystem system;
  const std::vector<double> flat{0.1, 0.2, 0.3, 0.4, 0.5, 0.6};
  const auto batch = system.forecast_batch(flat, 3, Aggregation::kMean);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch[0].abstained);
  EXPECT_TRUE(batch[1].abstained);
  EXPECT_EQ(batch[0].votes, 0u);
  EXPECT_EQ(batch[1].votes, 0u);
}

}  // namespace
