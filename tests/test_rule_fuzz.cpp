// Randomised round-trip tests: arbitrary rules through encode→parse and
// whole rule systems through save→load, across many seeds; forecasts are
// checked against the paper oracle's voters.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/rule.hpp"
#include "core/rule_system.hpp"
#include "oracle/expected_prediction.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::Aggregation;
using ef::core::Interval;
using ef::core::Prediction;
using ef::core::Rule;
using ef::core::RuleSystem;

constexpr Aggregation kAllAggregations[] = {
    Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
    Aggregation::kBestRule, Aggregation::kInverseError};

Rule random_rule(ef::util::Rng& rng, std::size_t window) {
  std::vector<Interval> genes;
  for (std::size_t j = 0; j < window; ++j) {
    if (rng.bernoulli(0.25)) {
      genes.push_back(Interval::wildcard());
      continue;
    }
    double a = rng.uniform(-1e3, 1e3);
    double b = rng.uniform(-1e3, 1e3);
    if (a > b) std::swap(a, b);
    genes.emplace_back(a, b);
  }
  return Rule(std::move(genes));
}

Rule with_random_predicting(Rule r, ef::util::Rng& rng) {
  ef::core::PredictingPart part;
  part.fit.coeffs.resize(r.window() + 1);
  for (double& c : part.fit.coeffs) c = rng.uniform(-10, 10);
  part.fit.max_abs_residual = rng.uniform(0, 5);
  part.fit.mean_prediction = rng.uniform(-100, 100);
  part.fit.degenerate = rng.bernoulli(0.2);
  part.matches = rng.index(1000);
  part.fitness = rng.uniform(-5, 50);
  r.set_predicting(part);
  return r;
}

class RuleFuzzTest : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RuleFuzzTest, EncodeParseRoundTripPreservesGenes) {
  ef::util::Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t window = 1 + rng.index(30);
    const Rule original = random_rule(rng, window);
    const Rule parsed = Rule::parse(original.encode());
    ASSERT_EQ(parsed.window(), original.window());
    for (std::size_t j = 0; j < window; ++j) {
      // encode() prints with limited precision; compare membership on probe
      // points instead of bit equality for bounded genes.
      ASSERT_EQ(parsed.genes()[j].is_wildcard(), original.genes()[j].is_wildcard()) << j;
      if (original.genes()[j].is_wildcard()) continue;
      const double mid = original.genes()[j].midpoint();
      EXPECT_TRUE(parsed.genes()[j].contains(mid));
    }
  }
}

TEST_P(RuleFuzzTest, SaveLoadRoundTripPreservesBehaviour) {
  ef::util::Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t window = 1 + rng.index(12);
    std::vector<Rule> rules;
    const std::size_t count = 1 + rng.index(10);
    for (std::size_t r = 0; r < count; ++r) {
      rules.push_back(with_random_predicting(random_rule(rng, window), rng));
    }
    RuleSystem original;
    original.add_rules(std::move(rules), false, -1e9);

    std::stringstream buffer;
    original.save(buffer);
    const RuleSystem loaded = RuleSystem::load(buffer);
    ASSERT_EQ(loaded.size(), original.size());

    // Behavioural equivalence on random probe windows.
    for (int probe = 0; probe < 30; ++probe) {
      std::vector<double> w(window);
      for (double& x : w) x = rng.uniform(-1200, 1200);
      const auto a = original.forecast(w);
      const auto b = loaded.forecast(w);
      ASSERT_EQ(a.abstained, b.abstained);
      if (!a.abstained) {
        ASSERT_NEAR(a.value, b.value, 1e-9);
      }
      const auto voters = ef::oracle::voters(original.rules(), w);
      ASSERT_EQ(ef::oracle::voters(loaded.rules(), w), voters);
      ASSERT_EQ(a.votes, voters.size());
      ASSERT_EQ(b.votes, voters.size());
      for (const Aggregation how : kAllAggregations) {
        const Prediction got = original.forecast(w, how);
        const Prediction expected = ef::oracle::expected_prediction(original.rules(), w, how);
        ASSERT_EQ(got.abstained, expected.abstained) << to_string(how);
        ASSERT_EQ(got.votes, expected.votes) << to_string(how);
        if (!expected.abstained) {
          ASSERT_EQ(got.value, expected.value) << to_string(how);
          ASSERT_EQ(got.bound, expected.bound) << to_string(how);
        }
      }
    }
  }
}

TEST_P(RuleFuzzTest, CorruptedSaveFilesThrowInsteadOfCrashing) {
  ef::util::Rng rng(GetParam() + 9000);
  // Build one valid serialisation, then corrupt it in assorted ways; load
  // must throw std::exception (never crash or silently succeed with
  // garbage sizes).
  RuleSystem original;
  std::vector<Rule> rules;
  for (int r = 0; r < 4; ++r) {
    rules.push_back(with_random_predicting(random_rule(rng, 5), rng));
  }
  original.add_rules(std::move(rules), false, -1e9);
  std::stringstream buffer;
  original.save(buffer);
  const std::string valid = buffer.str();

  const auto expect_throws = [](const std::string& text) {
    std::stringstream in(text);
    EXPECT_THROW((void)RuleSystem::load(in), std::exception) << text.substr(0, 60);
  };

  // Truncations at random points (but inside the body, so the header-only
  // prefix cases are included too).
  for (int t = 0; t < 10; ++t) {
    const std::size_t cut = 22 + rng.index(valid.size() - 22);
    std::string truncated = valid.substr(0, cut);
    std::stringstream in(truncated);
    try {
      const RuleSystem loaded = RuleSystem::load(in);
      // A cut exactly at a rule boundary can still parse if the declared
      // count was already satisfied — only then may load succeed.
      EXPECT_LE(loaded.size(), original.size());
    } catch (const std::exception&) {
      // expected for most cut points
    }
  }

  // Header corruption always throws.
  expect_throws("evoforecast-rules v999\n0\n");
  expect_throws("not a rules file at all");
  // Non-numeric gene bounds.
  std::string bad_gene = valid;
  const auto pos = bad_gene.find(' ', 25);
  ASSERT_NE(pos, std::string::npos);
  bad_gene.replace(pos + 1, 3, "xyz");
  expect_throws(bad_gene);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleFuzzTest, testing::Values(1u, 2u, 3u));

}  // namespace
