// Tests for core/rule_index.hpp: exact agreement with brute-force matching
// across aggregations and random probes, bucket mechanics, and pruning
// effectiveness on a trained system.
#include "core/rule_index.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/rule_system.hpp"
#include "series/mackey_glass.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::Aggregation;
using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleIndex;
using ef::core::RuleSystem;

Rule make_rule(std::vector<Interval> genes, double prediction, double fitness,
               double error = 0.1) {
  Rule r(std::move(genes));
  ef::core::PredictingPart part;
  part.fit.coeffs.assign(r.window() + 1, 0.0);
  part.fit.coeffs.back() = prediction;
  part.fit.mean_prediction = prediction;
  part.fit.max_abs_residual = error;
  part.matches = 5;
  part.fitness = fitness;
  r.set_predicting(part);
  return r;
}

/// Windows with one lag replaced by ±1e300 — finite, so a served request
/// carries them past validation — for every lag in turn, so whichever
/// dimension the index picked sees a value far outside its bucket range.
std::vector<std::vector<double>> huge_value_probes(const std::vector<double>& base) {
  std::vector<std::vector<double>> probes;
  for (std::size_t j = 0; j < base.size(); ++j) {
    for (const double huge : {1e300, -1e300}) {
      probes.push_back(base);
      probes.back()[j] = huge;
    }
  }
  return probes;
}

/// Index and brute-force forecasts agree exactly: same abstention, same
/// vote count, same value (NaN, from opposing infinite votes, equals NaN).
void expect_same_forecast(const RuleSystem& system, const RuleIndex& index,
                          const std::vector<double>& w, Aggregation how = Aggregation::kMean) {
  const ef::core::Prediction direct = system.forecast(w, how);
  const ef::core::Prediction indexed = index.forecast(w, how);
  ASSERT_EQ(direct.abstained, indexed.abstained);
  ASSERT_EQ(direct.votes, indexed.votes);
  if (!direct.abstained) {
    ASSERT_TRUE(direct.value == indexed.value ||
                (std::isnan(direct.value) && std::isnan(indexed.value)))
        << direct.value << " vs " << indexed.value;
  }
}

TEST(RuleIndex, ConstructionValidation) {
  RuleSystem system;
  EXPECT_THROW(RuleIndex(system, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(RuleIndex(system, 2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(RuleIndex(system, 0.0, 1.0, 0), std::invalid_argument);
}

TEST(RuleIndex, BucketsPruneCandidates) {
  RuleSystem system;
  // Three disjoint first-gene bands plus one wildcard-first rule.
  system.add_rules({make_rule({Interval(0.0, 0.2), Interval::wildcard()}, 1.0, 1.0),
                    make_rule({Interval(0.4, 0.6), Interval::wildcard()}, 2.0, 1.0),
                    make_rule({Interval(0.8, 1.0), Interval::wildcard()}, 3.0, 1.0),
                    make_rule({Interval::wildcard(), Interval::wildcard()}, 9.0, 0.5)},
                   false, -1.0);
  const RuleIndex index(system, 0.0, 1.0, 10);
  // Query at 0.5: candidates = the middle-band rule + the wildcard rule.
  const auto candidates = index.candidates(0.5);
  EXPECT_EQ(candidates.size(), 2u);
  // All four rules would be scanned brute-force; the index looks at 2.
  EXPECT_LT(index.mean_candidates(), 4.0);
}

TEST(RuleIndex, AgreesWithBruteForceOnHandSystem) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 0.5), Interval(0.0, 1.0)}, 10.0, 2.0),
                    make_rule({Interval(0.3, 0.9), Interval(0.0, 1.0)}, 20.0, 1.0),
                    make_rule({Interval::wildcard(), Interval(0.2, 0.4)}, 30.0, 3.0)},
                   false, -1.0);
  const RuleIndex index(system, 0.0, 1.0, 16);

  ef::util::Rng rng(4);
  for (int probe = 0; probe < 500; ++probe) {
    const std::vector<double> w{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)};
    for (const auto how :
         {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
          Aggregation::kBestRule, Aggregation::kInverseError}) {
      const auto direct = system.forecast(w, how).as_optional();
      const auto indexed = index.forecast(w, how).as_optional();
      ASSERT_EQ(direct.has_value(), indexed.has_value());
      if (direct) {
        ASSERT_DOUBLE_EQ(*direct, *indexed);
      }
    }
    ASSERT_EQ(system.vote_count(w), index.vote_count(w));
  }
  for (const auto& w : huge_value_probes({0.35, 0.3})) {
    for (const auto how :
         {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
          Aggregation::kBestRule, Aggregation::kInverseError}) {
      expect_same_forecast(system, index, w, how);
    }
    ASSERT_EQ(system.vote_count(w), index.vote_count(w));
  }
}

TEST(RuleIndex, AgreesWithBruteForceOnTrainedSystem) {
  const auto mg = ef::series::make_paper_mackey_glass();
  const ef::core::WindowDataset train(mg.train, 4, 1);
  const ef::core::WindowDataset test(mg.test, 4, 1);

  ef::core::RuleSystemConfig cfg;
  cfg.evolution.population_size = 40;
  cfg.evolution.generations = 1500;
  cfg.evolution.emax = 0.12;
  cfg.evolution.seed = 3;
  cfg.max_executions = 2;
  cfg.coverage_target_percent = 100.0;
  const auto trained = ef::core::train(train, {.config = cfg});

  const RuleIndex index(trained.system, train.value_min(), train.value_max(), 64);
  for (std::size_t i = 0; i < test.count(); ++i) {
    const auto direct = trained.system.forecast(test.pattern(i)).as_optional();
    const auto indexed = index.forecast(test.pattern(i)).as_optional();
    ASSERT_EQ(direct.has_value(), indexed.has_value()) << i;
    if (direct) {
      ASSERT_DOUBLE_EQ(*direct, *indexed) << i;
    }
  }
  for (std::size_t i = 0; i < test.count(); i += 25) {
    const auto p = test.pattern(i);
    for (const auto& w : huge_value_probes({p.begin(), p.end()})) {
      expect_same_forecast(trained.system, index, w);
    }
  }
  // The index must actually prune on a trained (specific) rule set.
  EXPECT_LT(index.mean_candidates(), 0.8 * static_cast<double>(trained.system.size()));
}

TEST(RuleIndex, OutOfRangeQueriesHitEdgeBuckets) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 0.1), Interval::wildcard()}, 1.0, 1.0)}, false,
                   -1.0);
  const RuleIndex index(system, 0.0, 1.0, 4);
  // Below range: bucket 0 — the low-band rule is there.
  EXPECT_EQ(index.candidates(-5.0).size(), 1u);
  // Above range: last bucket — empty.
  EXPECT_EQ(index.candidates(5.0).size(), 0u);
  // Matching still exact: the window value itself is checked by the rule.
  EXPECT_FALSE(index.forecast(std::vector<double>{-5.0, 0.0}).as_optional().has_value());
}

TEST(RuleIndex, EmptyWindowAbstains) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 1.0)}, 1.0, 1.0)}, false, -1.0);
  const RuleIndex index(system, 0.0, 1.0, 4);
  EXPECT_FALSE(index.forecast(std::vector<double>{}).as_optional().has_value());
  EXPECT_EQ(index.vote_count(std::vector<double>{}), 0u);
}

}  // namespace
