// Tests for core/aggregation.hpp: each strategy against hand-computed
// references, abstention behaviour, invariance properties (all strategies
// bounded by the vote extremes; single vote is identity).
#include "core/aggregation.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/rule_system.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::aggregate_votes;
using ef::core::Aggregation;
using ef::core::Vote;

std::vector<Vote> votes3() {
  return {{10.0, 1.0, 0.10}, {20.0, 3.0, 0.01}, {60.0, 2.0, 0.05}};
}

TEST(Aggregation, EmptyVotesAbstain) {
  for (const auto how :
       {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
        Aggregation::kBestRule, Aggregation::kInverseError}) {
    EXPECT_FALSE(aggregate_votes({}, how).has_value()) << ef::core::to_string(how);
  }
}

TEST(Aggregation, SingleVoteIsIdentityForAllStrategies) {
  const std::vector<Vote> one{{7.5, 2.0, 0.1}};
  for (const auto how :
       {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
        Aggregation::kBestRule, Aggregation::kInverseError}) {
    const auto out = aggregate_votes(one, how);
    ASSERT_TRUE(out.has_value());
    EXPECT_DOUBLE_EQ(*out, 7.5) << ef::core::to_string(how);
  }
}

TEST(Aggregation, MeanMatchesHandComputation) {
  EXPECT_DOUBLE_EQ(*aggregate_votes(votes3(), Aggregation::kMean), 30.0);
}

TEST(Aggregation, FitnessWeighted) {
  // (1·10 + 3·20 + 2·60) / 6 = 190/6.
  EXPECT_DOUBLE_EQ(*aggregate_votes(votes3(), Aggregation::kFitnessWeighted), 190.0 / 6.0);
}

TEST(Aggregation, FitnessWeightedIgnoresNegativeFitness) {
  const std::vector<Vote> votes{{10.0, -1.0, 0.1}, {20.0, 2.0, 0.1}};
  EXPECT_DOUBLE_EQ(*aggregate_votes(votes, Aggregation::kFitnessWeighted), 20.0);
}

TEST(Aggregation, FitnessWeightedAllNegativeFallsBackToMean) {
  const std::vector<Vote> votes{{10.0, -1.0, 0.1}, {20.0, -2.0, 0.1}};
  EXPECT_DOUBLE_EQ(*aggregate_votes(votes, Aggregation::kFitnessWeighted), 15.0);
}

TEST(Aggregation, MedianOddCount) {
  EXPECT_DOUBLE_EQ(*aggregate_votes(votes3(), Aggregation::kMedian), 20.0);
}

TEST(Aggregation, MedianEvenCount) {
  const std::vector<Vote> votes{{1.0, 0, 0}, {9.0, 0, 0}, {3.0, 0, 0}, {5.0, 0, 0}};
  EXPECT_DOUBLE_EQ(*aggregate_votes(votes, Aggregation::kMedian), 4.0);
}

TEST(Aggregation, MedianRobustToOutlier) {
  std::vector<Vote> votes{{10.0, 0, 0}, {11.0, 0, 0}, {1e6, 0, 0}};
  EXPECT_DOUBLE_EQ(*aggregate_votes(votes, Aggregation::kMedian), 11.0);
}

TEST(Aggregation, BestRulePicksHighestFitness) {
  EXPECT_DOUBLE_EQ(*aggregate_votes(votes3(), Aggregation::kBestRule), 20.0);
}

TEST(Aggregation, InverseErrorWeightsTightRules) {
  // Errors 0.1, 0.01, 0.05 → weights ~10, 100, 20 → pulled toward 20.
  const double out = *aggregate_votes(votes3(), Aggregation::kInverseError);
  EXPECT_GT(out, 20.0);
  EXPECT_LT(out, 30.0);  // closer to 20 than plain mean (30)
}

TEST(Aggregation, AllStrategiesBoundedByVoteExtremes) {
  ef::util::Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Vote> votes;
    const std::size_t n = 1 + rng.index(8);
    double lo = 1e300;
    double hi = -1e300;
    for (std::size_t i = 0; i < n; ++i) {
      Vote v{rng.uniform(-50, 50), rng.uniform(-1, 5), rng.uniform(0.001, 1.0)};
      lo = std::min(lo, v.value);
      hi = std::max(hi, v.value);
      votes.push_back(v);
    }
    for (const auto how :
         {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
          Aggregation::kBestRule, Aggregation::kInverseError}) {
      const auto out = aggregate_votes(votes, how);
      ASSERT_TRUE(out.has_value());
      EXPECT_GE(*out, lo - 1e-9) << ef::core::to_string(how);
      EXPECT_LE(*out, hi + 1e-9) << ef::core::to_string(how);
    }
  }
}

TEST(Voters, OnlyMatchingEvaluatedRulesVote) {
  using ef::core::Interval;
  using ef::core::Rule;
  using ef::core::RuleSystem;
  std::vector<Rule> rules;
  // Rule 0: matches [0,10]², evaluated.
  Rule a({Interval(0, 10), Interval(0, 10)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {0.0, 0.0, 5.0};
  part.fitness = 1.0;
  part.fit.max_abs_residual = 0.2;
  a.set_predicting(part);
  rules.push_back(a);
  // Rule 1: matches but unevaluated → must not vote.
  rules.emplace_back(std::vector<Interval>{Interval(0, 10), Interval(0, 10)});
  // Rule 2: evaluated but doesn't match.
  Rule c({Interval(90, 99), Interval(90, 99)});
  c.set_predicting(part);
  rules.push_back(c);

  RuleSystem system;
  system.add_rules(std::move(rules), /*discard_unfit=*/false, /*f_min=*/-1.0);
  ASSERT_EQ(system.size(), 2u);  // the unevaluated rule never enters

  const std::vector<double> window{5.0, 5.0};
  EXPECT_EQ(system.voters(window), std::vector<std::size_t>{0});
  const auto vote = ef::core::vote_of(system.rules()[0], window);
  EXPECT_DOUBLE_EQ(vote.value, 5.0);
  EXPECT_DOUBLE_EQ(vote.fitness, 1.0);
  EXPECT_DOUBLE_EQ(vote.error, 0.2);
  const auto p = system.forecast(window);
  EXPECT_EQ(p.votes, 1u);
  EXPECT_DOUBLE_EQ(p.value, 5.0);
  EXPECT_DOUBLE_EQ(p.bound, 0.2);
}

TEST(RuleSystemAggregation, PredictWithStrategyMatchesDirectAggregation) {
  using ef::core::Interval;
  using ef::core::Rule;
  using ef::core::RuleSystem;

  const auto make_rule = [](double p, double fitness) {
    Rule r({Interval(0, 10)});
    ef::core::PredictingPart part;
    part.fit.coeffs = {0.0, p};
    part.fit.mean_prediction = p;
    part.fitness = fitness;
    r.set_predicting(part);
    return r;
  };
  RuleSystem system;
  system.add_rules({make_rule(2.0, 1.0), make_rule(4.0, 3.0)}, false, -1.0);

  const std::vector<double> w{5.0};
  EXPECT_DOUBLE_EQ(*system.forecast(w, Aggregation::kMean).as_optional(), 3.0);
  EXPECT_DOUBLE_EQ(*system.forecast(w, Aggregation::kBestRule).as_optional(), 4.0);
  EXPECT_DOUBLE_EQ(*system.forecast(w).as_optional(), *system.forecast(w, Aggregation::kMean).as_optional());
  EXPECT_FALSE(system.forecast(std::vector<double>{99.0}, Aggregation::kMedian).as_optional().has_value());
}

}  // namespace
