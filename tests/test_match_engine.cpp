// Tests for core/match_engine.hpp: serial and parallel paths must agree
// bit-for-bit with the paper oracle's scalar scan, including on datasets
// large enough to trigger chunking.
#include "core/match_engine.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "oracle/paper_oracle.hpp"
#include "series/timeseries.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::core::Interval;
using ef::core::MatchEngine;
using ef::core::Rule;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

TimeSeries random_series(std::size_t n, std::uint64_t seed) {
  ef::util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(0.0, 1.0);
  return TimeSeries(std::move(v));
}

Rule random_rule(std::size_t d, std::uint64_t seed) {
  ef::util::Rng rng(seed);
  std::vector<Interval> genes;
  for (std::size_t j = 0; j < d; ++j) {
    if (rng.bernoulli(0.2)) {
      genes.push_back(Interval::wildcard());
      continue;
    }
    double a = rng.uniform(0.0, 1.0);
    double b = rng.uniform(0.0, 1.0);
    if (a > b) std::swap(a, b);
    // Widen to make matches reasonably likely.
    genes.emplace_back(std::max(0.0, a - 0.3), std::min(1.0, b + 0.3));
  }
  return Rule(std::move(genes));
}

/// The oracle's match set of `rule` over the same series and embedding.
std::vector<std::size_t> oracle_matches(const TimeSeries& s, const WindowDataset& data,
                                        const Rule& rule) {
  return ef::oracle::match(rule.genes(),
                           ef::oracle::make_windows(s.values(), data.window(), data.horizon()));
}

TEST(MatchEngine, SerialFindsKnownMatches) {
  // Ramp 0..19, rule: first value in [3,5] → windows starting at 3,4,5.
  std::vector<double> v(20);
  std::iota(v.begin(), v.end(), 0.0);
  const TimeSeries s(std::move(v));
  const WindowDataset data(s, 2, 1);
  const MatchEngine engine(data);
  const Rule r({Interval(3, 5), Interval::wildcard()});
  EXPECT_EQ(engine.match_indices(r), (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(oracle_matches(s, data, r), (std::vector<std::size_t>{3, 4, 5}));
}

TEST(MatchEngine, DimensionMismatchMatchesNothing) {
  const TimeSeries s = random_series(100, 1);
  const WindowDataset data(s, 4, 1);
  const MatchEngine engine(data);
  const Rule r({Interval::wildcard(), Interval::wildcard()});  // D=2 vs dataset D=4
  EXPECT_TRUE(engine.match_indices(r).empty());
}

TEST(MatchEngine, ParallelAgreesWithSerialLargeDataset) {
  // 50 000 windows: well past the parallel grain.
  const TimeSeries s = random_series(50010, 2);
  const WindowDataset data(s, 8, 2);
  ef::util::ThreadPool pool(4);
  const MatchEngine engine(data, &pool);

  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Rule r = random_rule(8, 100 + seed);
    ASSERT_EQ(engine.match_indices(r), oracle_matches(s, data, r)) << "rule seed " << seed;
  }
}

TEST(MatchEngine, ParallelResultSortedAscending) {
  const TimeSeries s = random_series(30000, 3);
  const WindowDataset data(s, 5, 1);
  ef::util::ThreadPool pool(8);
  const MatchEngine engine(data, &pool);
  const Rule r = random_rule(5, 7);
  const auto matches = engine.match_indices(r);
  for (std::size_t i = 1; i < matches.size(); ++i) EXPECT_LT(matches[i - 1], matches[i]);
}

TEST(MatchEngine, AllWildcardMatchesEverything) {
  const TimeSeries s = random_series(20000, 4);
  const WindowDataset data(s, 6, 3);
  const MatchEngine engine(data);
  const Rule r({Interval::wildcard(), Interval::wildcard(), Interval::wildcard(),
                Interval::wildcard(), Interval::wildcard(), Interval::wildcard()});
  EXPECT_EQ(engine.match_indices(r).size(), data.count());
}

TEST(MatchEngine, ImpossibleRuleMatchesNothing) {
  const TimeSeries s = random_series(20000, 5);
  const WindowDataset data(s, 4, 1);
  const MatchEngine engine(data);
  const Rule r({Interval(5.0, 6.0), Interval::wildcard(), Interval::wildcard(),
                Interval::wildcard()});  // values live in [0,1]
  EXPECT_TRUE(engine.match_indices(r).empty());
}

TEST(MatchEngine, SmallDatasetUsesSerialPathCorrectly) {
  const TimeSeries s = random_series(50, 6);
  const WindowDataset data(s, 3, 1);
  ef::util::ThreadPool pool(4);
  const MatchEngine engine(data, &pool);
  const Rule r = random_rule(3, 8);
  EXPECT_EQ(engine.match_indices(r), oracle_matches(s, data, r));
}

TEST(MatchEngine, NullPoolUsesSharedPool) {
  const TimeSeries s = random_series(30000, 7);
  const WindowDataset data(s, 4, 1);
  const MatchEngine engine(data, nullptr);
  const Rule r = random_rule(4, 9);
  EXPECT_EQ(engine.match_indices(r), oracle_matches(s, data, r));
}

}  // namespace
