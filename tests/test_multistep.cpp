// Tests for core/multistep.hpp: chain mechanics on a hand-built system,
// abstention policies, equivalence with direct prediction on a linear
// series, and the chain stepped against the paper oracle's voters.
#include "core/multistep.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/rule_system.hpp"
#include "oracle/expected_prediction.hpp"
#include "series/timeseries.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::Aggregation;
using ef::core::ChainAbstention;
using ef::core::Interval;
using ef::core::iterate_forecast;
using ef::core::iterate_forecast_dataset;
using ef::core::MultistepOptions;
using ef::core::Prediction;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

/// One-step "+1" system: a single rule over a finite box predicting
/// last + 1 via the hyperplane (0, 1 | intercept 1).
RuleSystem plus_one_system(double lo, double hi) {
  Rule r({Interval(lo, hi), Interval(lo, hi)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {0.0, 1.0, 1.0};  // ŷ = x₁ + 1
  part.fit.mean_prediction = 0.5 * (lo + hi);
  part.matches = 10;
  part.fitness = 1.0;
  r.set_predicting(part);
  RuleSystem system;
  system.add_rules({std::move(r)}, false, -1.0);
  return system;
}

TEST(Multistep, SingleStepEqualsDirectPredict) {
  const RuleSystem system = plus_one_system(0, 100);
  const std::vector<double> w{3.0, 4.0};
  MultistepOptions options;
  options.horizon = 1;
  const auto iterated = iterate_forecast(system, w, options);
  const auto direct = system.forecast(w).as_optional();
  ASSERT_TRUE(iterated.has_value());
  ASSERT_TRUE(direct.has_value());
  EXPECT_DOUBLE_EQ(*iterated, *direct);
}

TEST(Multistep, ChainsAdditiveSteps) {
  const RuleSystem system = plus_one_system(0, 100);
  const std::vector<double> w{3.0, 4.0};
  for (const std::size_t h : {2u, 5u, 10u}) {
    MultistepOptions options;
    options.horizon = h;
    const auto out = iterate_forecast(system, w, options);
    ASSERT_TRUE(out.has_value()) << h;
    EXPECT_DOUBLE_EQ(*out, 4.0 + static_cast<double>(h)) << h;
  }
}

TEST(Multistep, AbstainPolicyPropagatesAbstention) {
  // Box only covers values <= 6: the chain leaves it after a few steps.
  const RuleSystem system = plus_one_system(0, 6);
  const std::vector<double> w{3.0, 4.0};
  MultistepOptions options;
  options.horizon = 10;
  options.on_abstain = ChainAbstention::kAbstain;
  EXPECT_FALSE(iterate_forecast(system, w, options).has_value());
}

TEST(Multistep, PersistencePolicyBridgesGaps) {
  const RuleSystem system = plus_one_system(0, 6);
  const std::vector<double> w{3.0, 4.0};
  MultistepOptions options;
  options.horizon = 10;
  options.on_abstain = ChainAbstention::kPersistence;
  const auto out = iterate_forecast(system, w, options);
  ASSERT_TRUE(out.has_value());
  // Steps: 5, 6, 7 (predicted while window in box)… after the window fills
  // with values > 6 the rule stops matching and persistence holds the level.
  EXPECT_GE(*out, 6.0);
  EXPECT_LE(*out, 8.0);
}

TEST(Multistep, InvalidArgumentsThrow) {
  const RuleSystem system = plus_one_system(0, 10);
  MultistepOptions options;
  options.horizon = 0;
  EXPECT_THROW((void)iterate_forecast(system, std::vector<double>{1.0, 2.0}, options),
               std::invalid_argument);
  options.horizon = 1;
  EXPECT_THROW((void)iterate_forecast(system, std::vector<double>{}, options),
               std::invalid_argument);
}

TEST(MultistepDataset, RequiresStrideOne) {
  const TimeSeries s(std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  const WindowDataset strided(s, 2, 2, /*stride=*/2);
  const RuleSystem system = plus_one_system(0, 100);
  EXPECT_THROW(
      (void)iterate_forecast_dataset(system, strided, ChainAbstention::kAbstain),
      std::invalid_argument);
}

TEST(MultistepDataset, ExactOnRampWithPlusOneSystem) {
  // Ramp series: the true τ-step continuation of (x, x+1) is x+1+τ, which
  // the iterated +1 system reproduces exactly.
  std::vector<double> v(30);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const TimeSeries s(std::move(v));
  const WindowDataset data(s, 2, 4);  // τ = 4
  const RuleSystem system = plus_one_system(0, 100);

  const auto forecast = iterate_forecast_dataset(system, data, ChainAbstention::kAbstain);
  ASSERT_EQ(forecast.size(), data.count());
  for (std::size_t i = 0; i < data.count(); ++i) {
    ASSERT_TRUE(forecast[i].has_value()) << i;
    EXPECT_DOUBLE_EQ(*forecast[i], data.target(i)) << i;
  }
}

TEST(Trajectory, ProducesRequestedSteps) {
  const RuleSystem system = plus_one_system(0, 1000);
  const auto traj =
      ef::core::iterate_trajectory(system, std::vector<double>{3.0, 4.0}, 5);
  ASSERT_EQ(traj.size(), 5u);
  for (std::size_t k = 0; k < traj.size(); ++k) {
    EXPECT_DOUBLE_EQ(traj[k], 5.0 + static_cast<double>(k));
  }
}

TEST(Trajectory, TruncatesAtAbstention) {
  const RuleSystem system = plus_one_system(0, 6);  // leaves the box quickly
  const auto traj =
      ef::core::iterate_trajectory(system, std::vector<double>{3.0, 4.0}, 10);
  EXPECT_LT(traj.size(), 10u);
  EXPECT_GE(traj.size(), 1u);
  // Every produced value is a genuine one-step prediction (last + 1).
  EXPECT_DOUBLE_EQ(traj.front(), 5.0);
}

TEST(Trajectory, PersistenceBridgesToFullLength) {
  const RuleSystem system = plus_one_system(0, 6);
  MultistepOptions options;
  options.on_abstain = ef::core::ChainAbstention::kPersistence;
  const auto traj =
      ef::core::iterate_trajectory(system, std::vector<double>{3.0, 4.0}, 10, options);
  EXPECT_EQ(traj.size(), 10u);
  // Once persistence kicks in the level holds.
  EXPECT_DOUBLE_EQ(traj.back(), traj[traj.size() - 2]);
}

TEST(Trajectory, EmptyWindowThrows) {
  const RuleSystem system = plus_one_system(0, 10);
  EXPECT_THROW((void)ef::core::iterate_trajectory(system, std::vector<double>{}, 3),
               std::invalid_argument);
}

TEST(Trajectory, ZeroStepsIsEmpty) {
  const RuleSystem system = plus_one_system(0, 10);
  EXPECT_TRUE(ef::core::iterate_trajectory(system, std::vector<double>{1.0, 2.0}, 0).empty());
}

TEST(MultistepDataset, HorizonZeroThrows) {
  std::vector<double> v(20, 1.0);
  const TimeSeries s(std::move(v));
  const WindowDataset data(s, 2, 0);
  const RuleSystem system = plus_one_system(0, 100);
  EXPECT_THROW((void)iterate_forecast_dataset(system, data, ChainAbstention::kAbstain),
               std::invalid_argument);
}

/// Two overlapping rules with different hyperplanes over [0, 10]², so chains
/// carry one or two voters per step and leave the boxes after a while.
RuleSystem two_rule_system() {
  const auto rule = [](std::vector<Interval> genes, std::vector<double> coeffs, double fitness,
                       double error) {
    Rule r(std::move(genes));
    ef::core::PredictingPart part;
    part.fit.coeffs = std::move(coeffs);
    part.fit.max_abs_residual = error;
    part.matches = 4;
    part.fitness = fitness;
    r.set_predicting(part);
    return r;
  };
  RuleSystem system;
  system.add_rules({rule({Interval(0, 6), Interval(0, 8)}, {0.2, 0.9, 0.7}, 2.0, 0.1),
                    rule({Interval(3, 10), Interval::wildcard()}, {-0.1, 1.1, 0.4}, 1.0, 0.3)},
                   false, -1.0);
  return system;
}

TEST(Multistep, ChainEqualsSteppedOracleForecasts) {
  // Each step of the chain is the oracle's prediction for the slid window;
  // the chain returns the last one with its votes and no bound.
  const RuleSystem system = two_rule_system();
  const ef::core::RulePlanes planes = system.compile_planes(2);
  ef::util::Rng rng(5);
  for (int probe = 0; probe < 100; ++probe) {
    const std::vector<double> w{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    for (const Aggregation how : {Aggregation::kMean, Aggregation::kFitnessWeighted,
                                  Aggregation::kMedian, Aggregation::kBestRule,
                                  Aggregation::kInverseError}) {
      for (const std::size_t steps : {1u, 3u, 8u}) {
        std::vector<double> values;
        const Prediction chain = ef::core::iterate_chain(
            system, planes, w, steps, ChainAbstention::kAbstain, how, &values);

        std::vector<double> state = w;
        std::vector<double> expected_values;
        Prediction expected;
        for (std::size_t step = 0; step < steps; ++step) {
          expected = ef::oracle::expected_prediction(system.rules(), state, how);
          if (expected.abstained) break;
          expected_values.push_back(expected.value);
          state.erase(state.begin());
          state.push_back(expected.value);
        }
        ASSERT_EQ(values, expected_values) << "probe " << probe << " steps " << steps;
        ASSERT_EQ(chain.abstained, expected.abstained);
        if (chain.abstained) {
          EXPECT_EQ(chain.votes, 0u);
        } else {
          EXPECT_EQ(chain.value, expected.value);
          EXPECT_EQ(chain.votes, expected.votes);
        }
        EXPECT_EQ(chain.bound, -1.0);
      }
    }
  }
}

TEST(Multistep, ChainPersistenceBridgesWithZeroVotes) {
  // The box covers values <= 6: steps 5, 6 and 7 are predicted, after that the
  // chain bridges with the last level, reporting no voters and no abstention.
  const RuleSystem system = plus_one_system(0, 6);
  std::vector<double> values;
  const Prediction chain =
      ef::core::iterate_chain(system, system.compile_planes(2), std::vector<double>{3.0, 4.0},
                              5, ChainAbstention::kPersistence, Aggregation::kMean, &values);
  EXPECT_EQ(values, (std::vector<double>{5.0, 6.0, 7.0, 7.0, 7.0}));
  EXPECT_FALSE(chain.abstained);
  EXPECT_EQ(chain.votes, 0u);
  EXPECT_EQ(chain.value, 7.0);
  EXPECT_EQ(chain.bound, -1.0);
}

TEST(Multistep, ChainZeroStepsAbstains) {
  const RuleSystem system = plus_one_system(0, 10);
  EXPECT_TRUE(ef::core::iterate_chain(system, system.compile_planes(2),
                                      std::vector<double>{1.0, 2.0}, 0,
                                      ChainAbstention::kAbstain, Aggregation::kMean)
                  .abstained);
}

}  // namespace
