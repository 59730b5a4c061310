// Tests for core/init.hpp: the paper's §3.2 output-stratified procedure
// (coverage of the output range, bounding-box correctness) and the random
// baseline.
#include "core/init.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "oracle/paper_oracle.hpp"
#include "series/venice.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::init_output_stratified;
using ef::core::init_uniform_random;
using ef::core::Interval;
using ef::core::Rule;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

/// Ascending indices of the dataset's patterns the rule matches (the paper
/// oracle's scan).
std::vector<std::size_t> matched(const Rule& rule, const WindowDataset& data) {
  return ef::oracle::match_rows(rule.genes(), data.pattern(0).data(), data.count(),
                                data.window());
}

TEST(StratifiedInit, PopulationSizeExact) {
  const auto venice = ef::series::generate_venice(2000);
  const WindowDataset data(venice, 6, 1);
  for (const std::size_t p : {1u, 7u, 50u, 100u}) {
    EXPECT_EQ(init_output_stratified(data, p).size(), p);
  }
}

TEST(StratifiedInit, ZeroPopulationThrows) {
  const auto venice = ef::series::generate_venice(200);
  const WindowDataset data(venice, 4, 1);
  EXPECT_THROW((void)init_output_stratified(data, 0), std::invalid_argument);
}

// Core contract of §3.2: every training pattern must be matched by the rule
// of its own output stratum (the rule's box is the min/max envelope of the
// stratum's patterns).
TEST(StratifiedInit, EveryPatternMatchedByItsStratumRule) {
  const auto venice = ef::series::generate_venice(3000);
  const WindowDataset data(venice, 8, 4);
  const std::size_t pop = 40;
  const auto rules = init_output_stratified(data, pop);

  const double lo = data.target_min();
  const double hi = data.target_max();
  const double step = (hi - lo) / static_cast<double>(pop);
  std::vector<std::vector<std::size_t>> matches;
  for (const Rule& r : rules) matches.push_back(matched(r, data));
  for (std::size_t i = 0; i < data.count(); ++i) {
    const double v = data.target(i);
    auto stratum = static_cast<std::size_t>((v - lo) / step);
    if (stratum >= pop) stratum = pop - 1;  // v == hi lands in the last one
    EXPECT_TRUE(std::binary_search(matches[stratum].begin(), matches[stratum].end(), i))
        << "pattern " << i << " not matched by its stratum " << stratum;
  }
}

// Consequence: the union of the initial rules covers 100 % of training.
TEST(StratifiedInit, InitialPopulationCoversWholeTrainingSet) {
  const auto venice = ef::series::generate_venice(2500);
  const WindowDataset data(venice, 6, 2);
  const auto rules = init_output_stratified(data, 30);
  std::vector<bool> covered(data.count(), false);
  for (const Rule& r : rules) {
    for (const std::size_t i : matched(r, data)) covered[i] = true;
  }
  for (std::size_t i = 0; i < data.count(); ++i) EXPECT_TRUE(covered[i]) << "pattern " << i;
}

TEST(StratifiedInit, EmptyStrataGetFullRangeRules) {
  // Targets form two widely-separated clusters, so middle strata are empty;
  // their rules must be the full-range box (match everything in range).
  std::vector<double> v;
  for (int i = 0; i < 30; ++i) v.push_back(i % 2 == 0 ? 0.0 : 0.01);
  for (int i = 0; i < 30; ++i) v.push_back(i % 2 == 0 ? 100.0 : 99.9);
  const TimeSeries s(std::move(v));
  const WindowDataset data(s, 2, 1);
  const auto rules = init_output_stratified(data, 10);
  ASSERT_EQ(rules.size(), 10u);
  // Strata around the middle (targets ~40-60) are empty → full-range genes.
  const Rule& mid = rules[5];
  for (const auto& g : mid.genes()) {
    ASSERT_FALSE(g.is_wildcard());
    EXPECT_DOUBLE_EQ(g.lo(), data.value_min());
    EXPECT_DOUBLE_EQ(g.hi(), data.value_max());
  }
}

TEST(StratifiedInit, ConstantSeriesDoesNotCrash) {
  const TimeSeries s(std::vector<double>(50, 3.0));
  const WindowDataset data(s, 4, 1);
  const auto rules = init_output_stratified(data, 10);
  EXPECT_EQ(rules.size(), 10u);
  // Every rule must match the constant window.
  for (const Rule& r : rules) {
    EXPECT_EQ(ef::oracle::match_rows(r.genes(), data.pattern(0).data(), 1, data.window()),
              std::vector<std::size_t>{0});
  }
}

TEST(StratifiedInit, RulesAreGeneralNotWildcard) {
  // §3.2 produces bounded boxes, never '*' genes.
  const auto venice = ef::series::generate_venice(1000);
  const WindowDataset data(venice, 5, 1);
  for (const Rule& r : init_output_stratified(data, 20)) {
    EXPECT_EQ(r.specificity(), 5u);
  }
}

TEST(RandomInit, PopulationSizeAndGeneBounds) {
  const auto venice = ef::series::generate_venice(500);
  const WindowDataset data(venice, 6, 1);
  ef::util::Rng rng(3);
  const auto rules = init_uniform_random(data, 25, rng, 0.1);
  ASSERT_EQ(rules.size(), 25u);
  for (const Rule& r : rules) {
    ASSERT_EQ(r.window(), 6u);
    for (const auto& g : r.genes()) {
      if (g.is_wildcard()) continue;
      EXPECT_GE(g.lo(), data.value_min());
      EXPECT_LE(g.hi(), data.value_max());
      EXPECT_LE(g.lo(), g.hi());
    }
  }
}

TEST(RandomInit, WildcardProbabilityRespected) {
  const auto venice = ef::series::generate_venice(300);
  const WindowDataset data(venice, 10, 1);
  ef::util::Rng rng(4);
  const auto none = init_uniform_random(data, 50, rng, 0.0);
  for (const Rule& r : none) EXPECT_EQ(r.specificity(), 10u);
  const auto all = init_uniform_random(data, 50, rng, 1.0);
  for (const Rule& r : all) EXPECT_EQ(r.specificity(), 0u);
}

TEST(RandomInit, Deterministic) {
  const auto venice = ef::series::generate_venice(300);
  const WindowDataset data(venice, 4, 1);
  ef::util::Rng rng_a(9);
  ef::util::Rng rng_b(9);
  const auto a = init_uniform_random(data, 10, rng_a);
  const auto b = init_uniform_random(data, 10, rng_b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < a[i].window(); ++j) {
      EXPECT_EQ(a[i].genes()[j], b[i].genes()[j]);
    }
  }
}

TEST(InitializePopulation, DispatchesOnStrategy) {
  const auto venice = ef::series::generate_venice(400);
  const WindowDataset data(venice, 4, 1);
  ef::util::Rng rng(1);

  ef::core::EvolutionConfig cfg;
  cfg.population_size = 12;
  cfg.init = ef::core::InitStrategy::kOutputStratified;
  const auto strat = ef::core::initialize_population(data, cfg, rng);
  EXPECT_EQ(strat.size(), 12u);
  // Stratified rules are fully bounded.
  EXPECT_EQ(strat.front().specificity(), 4u);

  cfg.init = ef::core::InitStrategy::kUniformRandom;
  const auto rnd = ef::core::initialize_population(data, cfg, rng);
  EXPECT_EQ(rnd.size(), 12u);
}

}  // namespace
