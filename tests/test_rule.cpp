// Tests for core/rule.hpp: matching semantics (asked of the rule-major
// kernel through RuleSystem::voters), encode/parse round-trip, forecast
// contract, the paper's worked example.
#include "core/rule.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/rule_system.hpp"

namespace {

using ef::core::Interval;
using ef::core::PredictingPart;
using ef::core::Rule;
using ef::core::RuleSystem;

Rule paper_example_rule() {
  // Paper §3.1: (50,100, 40,90, −10,5, *,*, 1,100, 33, 5) with D = 5.
  return Rule({Interval(50, 100), Interval(40, 90), Interval(-10, 5), Interval::wildcard(),
               Interval(1, 100)});
}

/// Does the rule's conditional part accept the window? Asked of the match
/// kernel: the rule, given a predicting part, is the only voter candidate of
/// a one-rule system.
bool matches(Rule rule, const std::vector<double>& window) {
  PredictingPart part;
  part.fit.coeffs.assign(rule.window() + 1, 0.0);
  rule.set_predicting(part);
  RuleSystem system;
  system.add_rules({std::move(rule)}, /*discard_unfit=*/false, /*f_min=*/-1.0);
  return !system.voters(window).empty();
}

TEST(Rule, PaperExampleMatching) {
  const Rule r = paper_example_rule();
  EXPECT_EQ(r.window(), 5u);
  // Window satisfying every bound (position 3 is don't-care).
  EXPECT_TRUE(matches(r, {75, 60, 0, 12345, 50}));
  // Violate the first gene.
  EXPECT_FALSE(matches(r, {49, 60, 0, 0, 50}));
  // Violate the last gene.
  EXPECT_FALSE(matches(r, {75, 60, 0, 0, 101}));
  // Boundary values are inclusive.
  EXPECT_TRUE(matches(r, {50, 40, -10, -999, 1}));
  EXPECT_TRUE(matches(r, {100, 90, 5, 999, 100}));
  // Just outside a bound.
  EXPECT_FALSE(matches(r, {std::nextafter(50.0, 0.0), 40, -10, 0, 1}));
  EXPECT_FALSE(matches(r, {100, 90, std::nextafter(5.0, 6.0), 0, 100}));
}

TEST(Rule, WrongWindowLengthNeverMatches) {
  const Rule r = paper_example_rule();
  EXPECT_FALSE(matches(r, {75, 60, 0, 0}));
  EXPECT_FALSE(matches(r, {75, 60, 0, 0, 50, 1}));
  EXPECT_FALSE(matches(r, {}));
}

TEST(Rule, ZeroGeneRuleMatchesNothing) {
  // Planes of zero lags have no byte plane to reject lanes with, so the
  // kernel matches nothing there — not even a rule without genes.
  EXPECT_FALSE(matches(Rule(), {}));
  EXPECT_FALSE(matches(Rule(), {1.0}));
}

TEST(Rule, AllWildcardMatchesEverything) {
  const Rule r({Interval::wildcard(), Interval::wildcard()});
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(matches(r, {-1e9, 1e9}));
  EXPECT_TRUE(matches(r, {-1e300, 1e300}));
  EXPECT_TRUE(matches(r, {-inf, inf}));
  EXPECT_EQ(r.specificity(), 0u);
}

TEST(Rule, NanFailsBoundedGenesOnly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(matches(paper_example_rule(), {nan, 60, 0, 0, 50}));
  EXPECT_FALSE(matches(paper_example_rule(), {75, 60, 0, 0, nan}));
  // Position 3 is a wildcard: it holds anything, NaN included.
  EXPECT_TRUE(matches(paper_example_rule(), {75, 60, 0, nan, 50}));
}

TEST(Rule, SpecificityCountsBoundedGenes) {
  EXPECT_EQ(paper_example_rule().specificity(), 4u);
}

TEST(Rule, FitnessBeforeEvaluationIsMinusInfinity) {
  const Rule r = paper_example_rule();
  EXPECT_FALSE(r.predicting().has_value());
  EXPECT_EQ(r.fitness(), -std::numeric_limits<double>::infinity());
}

TEST(Rule, ForecastBeforeEvaluationThrows) {
  const Rule r = paper_example_rule();
  EXPECT_THROW((void)r.forecast(std::vector<double>{75, 60, 0, 0, 50}), std::logic_error);
}

TEST(Rule, ForecastAppliesHyperplane) {
  Rule r({Interval(0, 10), Interval(0, 10)});
  PredictingPart part;
  part.fit.coeffs = {2.0, -1.0, 5.0};  // 2x0 − x1 + 5
  part.matches = 3;
  part.fitness = 1.0;
  r.set_predicting(part);
  EXPECT_DOUBLE_EQ(r.forecast(std::vector<double>{4.0, 1.0}), 12.0);
  EXPECT_DOUBLE_EQ(r.fitness(), 1.0);
}

TEST(Rule, ClearPredictingResetsFitness) {
  Rule r({Interval(0, 1)});
  PredictingPart part;
  part.fit.coeffs = {0.0, 1.0};
  part.fitness = 9.0;
  r.set_predicting(part);
  r.clear_predicting();
  EXPECT_EQ(r.fitness(), -std::numeric_limits<double>::infinity());
}

TEST(Rule, EncodeShowsWildcardsAndBounds) {
  const Rule r({Interval(50, 100), Interval::wildcard()});
  EXPECT_EQ(r.encode(), "(50, 100, *, *)");
}

TEST(Rule, EncodeIncludesPredictingPart) {
  Rule r({Interval(0, 1)});
  PredictingPart part;
  part.fit.coeffs = {0.0, 33.0};
  part.fit.mean_prediction = 33.0;
  part.fit.max_abs_residual = 5.0;
  r.set_predicting(part);
  EXPECT_EQ(r.encode(), "(0, 1 | p=33, e=5)");
}

TEST(Rule, ParseRoundTripConditional) {
  const Rule original({Interval(50, 100), Interval(40, 90), Interval::wildcard(),
                       Interval(-10, 5)});
  const Rule parsed = Rule::parse(original.encode());
  ASSERT_EQ(parsed.window(), original.window());
  for (std::size_t j = 0; j < parsed.window(); ++j) {
    EXPECT_EQ(parsed.genes()[j], original.genes()[j]);
  }
}

TEST(Rule, ParseIgnoresPredictingSuffix) {
  const Rule parsed = Rule::parse("(1, 2, *, * | p=3, e=4)");
  ASSERT_EQ(parsed.window(), 2u);
  EXPECT_EQ(parsed.genes()[0], Interval(1, 2));
  EXPECT_TRUE(parsed.genes()[1].is_wildcard());
  EXPECT_FALSE(parsed.predicting().has_value());
}

TEST(Rule, ParseMalformedThrows) {
  EXPECT_THROW((void)Rule::parse("no parens"), std::invalid_argument);
  EXPECT_THROW((void)Rule::parse("(1, 2, 3)"), std::invalid_argument);   // odd bound count
  EXPECT_THROW((void)Rule::parse("(1, *)"), std::invalid_argument);      // half wildcard
  EXPECT_THROW((void)Rule::parse("(a, b)"), std::invalid_argument);      // non-numeric
  EXPECT_THROW((void)Rule::parse("()"), std::invalid_argument);          // empty
}

TEST(Rule, MutableGenesAccess) {
  Rule r({Interval(0, 1), Interval(2, 3)});
  r.genes()[0] = Interval::wildcard();
  EXPECT_TRUE(r.genes()[0].is_wildcard());
  EXPECT_EQ(r.specificity(), 1u);
}

}  // namespace
