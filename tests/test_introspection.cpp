// Tests for core/introspection.hpp: explanation provenance, voters and
// forecasts equal to the paper oracle's under every aggregation,
// gene-importance profiles on hand-built and trained systems.
#include "core/introspection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/rule_system.hpp"
#include "oracle/expected_prediction.hpp"
#include "series/synthetic.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::Aggregation;
using ef::core::explain;
using ef::core::gene_importance;
using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;

Rule make_rule(std::vector<Interval> genes, double prediction, double fitness,
               std::size_t matches = 7, double error = 0.2) {
  Rule r(std::move(genes));
  ef::core::PredictingPart part;
  part.fit.coeffs.assign(r.window() + 1, 0.0);
  part.fit.coeffs.back() = prediction;
  part.fit.mean_prediction = prediction;
  part.fit.max_abs_residual = error;
  part.matches = matches;
  part.fitness = fitness;
  r.set_predicting(part);
  return r;
}

TEST(Explain, AbstentionHasNoVoters) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0, 1)}, 5.0, 1.0)}, false, -1.0);
  const auto expl = explain(system, std::vector<double>{9.0});
  EXPECT_FALSE(expl.forecast.has_value());
  EXPECT_TRUE(expl.voters.empty());
}

TEST(Explain, VoterProvenanceComplete) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0, 10)}, 4.0, 2.5, 11, 0.125),
                    make_rule({Interval(50, 60)}, 9.0, 1.0)},
                   false, -1.0);
  const auto expl = explain(system, std::vector<double>{5.0});
  ASSERT_TRUE(expl.forecast.has_value());
  ASSERT_EQ(expl.voters.size(), 1u);
  const auto& voter = expl.voters.front();
  EXPECT_EQ(voter.rule_index, 0u);
  EXPECT_DOUBLE_EQ(voter.output, 4.0);
  EXPECT_DOUBLE_EQ(voter.fitness, 2.5);
  EXPECT_DOUBLE_EQ(voter.error, 0.125);
  EXPECT_EQ(voter.matches, 11u);
  EXPECT_EQ(voter.specificity, 1u);
}

TEST(Explain, ForecastMatchesPredictForEveryAggregation) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0, 10)}, 4.0, 2.0), make_rule({Interval(0, 10)}, 8.0, 1.0),
                    make_rule({Interval(0, 10)}, 6.0, 3.0)},
                   false, -1.0);
  const std::vector<double> w{5.0};
  for (const auto how :
       {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
        Aggregation::kBestRule, Aggregation::kInverseError}) {
    const auto expl = explain(system, w, how);
    const auto expected = ef::oracle::expected_prediction(system.rules(), w, how);
    ASSERT_TRUE(expl.forecast.has_value());
    EXPECT_EQ(*expl.forecast, expected.value);
    EXPECT_EQ(*expl.forecast, system.forecast(w, how).value);
    EXPECT_EQ(expl.voters.size(), 3u);
  }
}

TEST(Explain, VotersAndForecastEqualOracleOnRandomWindows) {
  // Overlapping boxes, a wildcard gene, a rule of another length: the
  // explanation lists exactly the oracle's voters, in ascending rule order,
  // with their outputs, and forecasts what the oracle's votes aggregate to.
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 0.6), Interval::wildcard()}, 1.0, 2.0, 3, 0.1),
                    make_rule({Interval(0.3, 1.0), Interval(0.2, 0.9)}, 2.0, 1.0, 5, 0.3),
                    make_rule({Interval(0.0, 1.0)}, 9.0, 4.0),
                    make_rule({Interval(0.5, 0.8), Interval(0.0, 0.5)}, 3.0, 3.0, 9, 0.05)},
                   false, -1.0);
  ef::util::Rng rng(31);
  for (int probe = 0; probe < 300; ++probe) {
    const std::vector<double> w{rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)};
    const auto expected_voters = ef::oracle::voters(system.rules(), w);
    for (const auto how :
         {Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
          Aggregation::kBestRule, Aggregation::kInverseError}) {
      const auto expl = explain(system, w, how);
      ASSERT_EQ(expl.voters.size(), expected_voters.size());
      for (std::size_t k = 0; k < expl.voters.size(); ++k) {
        EXPECT_EQ(expl.voters[k].rule_index, expected_voters[k]);
        EXPECT_EQ(expl.voters[k].output, system.rules()[expected_voters[k]].forecast(w));
      }
      const auto expected = ef::oracle::expected_prediction(system.rules(), w, how);
      ASSERT_EQ(expl.forecast.has_value(), !expected.abstained);
      if (expl.forecast) {
        EXPECT_EQ(*expl.forecast, expected.value);
      }
    }
  }
}

TEST(GeneImportance, EmptySystemEmptyProfile) {
  const RuleSystem empty;
  EXPECT_TRUE(gene_importance(empty, 0.0, 1.0).empty());
}

TEST(GeneImportance, BadRangeThrows) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0, 1)}, 1.0, 1.0)}, false, -1.0);
  EXPECT_THROW((void)gene_importance(system, 1.0, 1.0), std::invalid_argument);
}

TEST(GeneImportance, WildcardsScoreZero) {
  RuleSystem system;
  system.add_rules(
      {make_rule({Interval::wildcard(), Interval::wildcard()}, 1.0, 1.0)}, false, -1.0);
  const auto profile = gene_importance(system, 0.0, 1.0);
  ASSERT_EQ(profile.size(), 2u);
  EXPECT_DOUBLE_EQ(profile[0], 0.0);
  EXPECT_DOUBLE_EQ(profile[1], 0.0);
}

TEST(GeneImportance, NarrowGenesScoreHigher) {
  RuleSystem system;
  // Gene 0: narrow band; gene 1: nearly the whole range; gene 2: wildcard.
  system.add_rules({make_rule({Interval(0.4, 0.5), Interval(0.05, 0.95),
                               Interval::wildcard()},
                              1.0, 1.0)},
                   false, -1.0);
  const auto profile = gene_importance(system, 0.0, 1.0);
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_GT(profile[0], profile[1]);
  EXPECT_GT(profile[1], profile[2]);
  EXPECT_NEAR(profile[0], 0.9, 1e-9);
  EXPECT_NEAR(profile[1], 0.1, 1e-9);
}

TEST(GeneImportance, FitnessWeightsDominantRules) {
  RuleSystem system;
  // High-fitness rule constrains gene 0; low-fitness rule constrains gene 1.
  system.add_rules({make_rule({Interval(0.4, 0.5), Interval::wildcard()}, 1.0, 10.0),
                    make_rule({Interval::wildcard(), Interval(0.4, 0.5)}, 1.0, 0.1)},
                   false, -1.0);
  const auto profile = gene_importance(system, 0.0, 1.0);
  EXPECT_GT(profile[0], 5.0 * profile[1]);
}

TEST(GeneImportance, TrainedSystemFindsTheInformativeLag) {
  // Series: target = strong function of the last window value (an AR(1)
  // process): the evolved rules should constrain the *last* lag hardest.
  const auto s = ef::series::generate_ar(1500, {{0.95}, 0.3, 0.0, 200, 17});
  const ef::core::WindowDataset train(s, 6, 1);
  ef::core::RuleSystemConfig cfg;
  cfg.evolution.population_size = 40;
  cfg.evolution.generations = 4000;
  cfg.evolution.emax = 0.4;
  cfg.evolution.seed = 23;
  cfg.max_executions = 2;
  cfg.coverage_target_percent = 95.0;
  const auto trained = ef::core::train(train, {.config = cfg});

  const auto profile =
      gene_importance(trained.system, train.value_min(), train.value_max());
  ASSERT_EQ(profile.size(), 6u);
  // The last lag (index 5) carries the AR(1) signal: it must be the most
  // (or near-most) constrained position.
  double best = 0.0;
  for (const double v : profile) best = std::max(best, v);
  EXPECT_GE(profile[5], 0.8 * best);
  EXPECT_GT(profile[5], 0.0);
}

}  // namespace
