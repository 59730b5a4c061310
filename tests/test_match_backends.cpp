// Property tests for the match paths: MatchEngine and the kernels it
// dispatches to — the prefilter at each SIMD width, the rule-major batch
// kernel at each width and in both output shapes — must produce exactly the same ascending index set as the paper
// oracle's scalar scan (tests/oracle/paper_oracle.hpp, over windows it builds
// from the raw series), across wildcard densities, window sizes,
// selectivities, and datasets large enough to trigger the parallel chunked
// path. Bit-identical match sets are the contract that lets cpuid pick the
// kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/match_backend.hpp"
#include "core/match_engine.hpp"
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

/// Random rule with a given wildcard probability. Interval edges are drawn
/// raw (no widening), so selectivity varies from near-empty to near-full.
Rule random_rule(std::size_t d, double wildcard_prob, std::uint64_t seed) {
  ef::util::Rng rng(seed);
  std::vector<Interval> genes;
  genes.reserve(d);
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
  return Rule(std::move(genes));
}

/// The prefilter kernel called directly with the SSE2 (avx2=false) and, where
/// the CPU has it, the AVX2 byte scan — so the SSE2 path runs on AVX2 hosts
/// too — over [0, count) and over ranges split at offsets that are not
/// multiples of either lane width.
void expect_prefilter_widths_match(const WindowDataset& data, const Rule& rule,
                                   const std::vector<std::size_t>& expected, const char* what) {
  const std::size_t m = data.count();
  for (const bool avx2 : {false, true}) {
    std::vector<std::size_t> whole;
    ef::core::matchkern::soa_prefilter_match(data.lag_major(), rule.genes(), 0, m, whole,
                                             nullptr, avx2);
    EXPECT_EQ(whole, expected) << what << " avx2=" << avx2;

    std::vector<std::size_t> split;
    std::size_t pruned = 0;
    const std::size_t cuts[] = {0, std::min(m, std::size_t{37}), std::min(m, m / 2 + 5), m};
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
      ef::core::matchkern::soa_prefilter_match(data.lag_major(), rule.genes(), cuts[c],
                                               cuts[c + 1], split, &pruned, avx2);
    }
    EXPECT_EQ(split, expected) << what << " split avx2=" << avx2;
    EXPECT_LE(pruned + expected.size(), m) << what << " avx2=" << avx2;
  }
}

/// Per-rule contract: MatchEngine::match_indices and the prefilter kernel
/// at both widths return the oracle's match set over the same series.
void expect_engine_matches_oracle(const TimeSeries& s, const WindowDataset& data,
                                  const Rule& rule, ef::util::ThreadPool* pool,
                                  const char* what) {
  const ef::oracle::Windows w =
      ef::oracle::make_windows(s.values(), data.window(), data.horizon());
  const std::vector<std::size_t> expected = ef::oracle::match(rule.genes(), w);
  const MatchEngine engine(data, pool);
  EXPECT_EQ(engine.match_indices(rule), expected) << what;
  if (rule.genes().size() == data.window()) {
    expect_prefilter_widths_match(data, rule, expected, what);
  }
}

/// Batched contract: match_all(rules)[r] (the rule-major kernel) must equal
/// the oracle's match set of rules[r].
void expect_match_all_matches_oracle(const TimeSeries& s, const WindowDataset& data,
                                     const std::vector<Rule>& rules,
                                     ef::util::ThreadPool* pool, const char* what) {
  const ef::oracle::Windows w =
      ef::oracle::make_windows(s.values(), data.window(), data.horizon());
  const MatchEngine engine(data, pool);
  const auto got = engine.match_all(rules);
  ASSERT_EQ(got.size(), rules.size()) << what;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    EXPECT_EQ(got[r], ef::oracle::match(rules[r].genes(), w)) << what << " rule=" << r;
  }
}

TEST(MatchBackends, AgreeAcrossWildcardDensitiesAndWindows) {
  // Small dataset: serial path in match_indices (below the parallel grain).
  const TimeSeries s = random_series(600, 11);
  for (const std::size_t window : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const WindowDataset data(s, window, 1);
    std::uint64_t seed = 1000 * window;
    for (const double wc : {0.0, 0.2, 0.5, 1.0}) {
      for (int trial = 0; trial < 8; ++trial) {
        expect_engine_matches_oracle(s, data, random_rule(window, wc, ++seed), nullptr,
                                     "small");
      }
    }
  }
}

TEST(MatchBackends, AgreeOnParallelChunkedPath) {
  // > 4096 windows and an explicit multi-worker pool: the chunked parallel
  // path must concatenate per-chunk results in dataset order.
  const TimeSeries s = random_series(20000, 29);
  const WindowDataset data(s, 4, 1);
  ef::util::ThreadPool pool(4);
  std::uint64_t seed = 500;
  for (const double wc : {0.0, 0.2, 0.5, 1.0}) {
    for (int trial = 0; trial < 4; ++trial) {
      expect_engine_matches_oracle(s, data, random_rule(4, wc, ++seed), &pool, "parallel");
    }
  }
}

TEST(MatchBackends, AllWildcardRuleMatchesEverything) {
  const TimeSeries s = random_series(5000, 3);
  const WindowDataset data(s, 5, 1);
  const Rule rule(std::vector<Interval>(5, Interval::wildcard()));
  const MatchEngine engine(data);
  EXPECT_EQ(engine.match_indices(rule).size(), data.count());
  expect_engine_matches_oracle(s, data, rule, nullptr, "all-wildcard");
}

TEST(MatchBackends, EmptyMatchSetAgrees) {
  // Values live in [0,1); an interval above 2 can never match.
  const TimeSeries s = random_series(3000, 7);
  const WindowDataset data(s, 3, 1);
  std::vector<Interval> genes(3, Interval::wildcard());
  genes[1] = Interval(2.0, 3.0);
  const Rule rule(std::move(genes));
  const MatchEngine engine(data);
  EXPECT_TRUE(engine.match_indices(rule).empty());
  expect_engine_matches_oracle(s, data, rule, nullptr, "empty");
}

TEST(MatchBackends, DimensionMismatchMatchesNothing) {
  const TimeSeries s = random_series(500, 13);
  const WindowDataset data(s, 4, 1);
  const Rule narrow(std::vector<Interval>(3, Interval::wildcard()));
  const Rule wide(std::vector<Interval>(6, Interval::wildcard()));
  const MatchEngine engine(data);
  EXPECT_TRUE(engine.match_indices(narrow).empty());
  EXPECT_TRUE(engine.match_indices(wide).empty());
}

TEST(MatchBackends, NanSemanticsAgreeAtKernelLevel) {
  // TimeSeries rejects non-finite input, so NaN can only be probed at the
  // kernel layer: a NaN value must be rejected by any bounded gene and
  // accepted by a wildcard — identically in every kernel.
  constexpr std::size_t kWindow = 3;
  constexpr std::size_t kCount = 64;
  ef::util::Rng rng(17);
  std::vector<double> rows(kCount * kWindow);
  for (double& x : rows) x = rng.uniform(0.0, 1.0);
  rows[5 * kWindow + 1] = std::numeric_limits<double>::quiet_NaN();
  rows[20 * kWindow + 0] = std::numeric_limits<double>::quiet_NaN();
  rows[33 * kWindow + 2] = std::numeric_limits<double>::quiet_NaN();

  // The quantized lag-major columns the prefilter scans, built with the
  // dataset's monotone byte map (NaN quantizes to 0).
  const double qmin = 0.0;
  const double qinv = 255.0;  // values in [0,1)
  std::vector<std::uint8_t> qcols(kCount * kWindow);
  for (std::size_t i = 0; i < kCount; ++i) {
    for (std::size_t j = 0; j < kWindow; ++j) {
      qcols[j * kCount + i] = ef::core::quantize_value(rows[i * kWindow + j], qmin, qinv);
    }
  }
  ef::core::LagMajorView view{};
  view.count = kCount;
  view.window = kWindow;
  view.rows = rows.data();
  view.qdata = qcols.data();
  view.qmin = qmin;
  view.qinv = qinv;

  std::uint64_t seed = 90;
  for (const double wc : {0.0, 0.5, 1.0}) {
    for (int trial = 0; trial < 8; ++trial) {
      const Rule rule = random_rule(kWindow, wc, ++seed);
      const std::vector<std::size_t> oracle_out =
          ef::oracle::match_rows(rule.genes(), rows.data(), kCount, kWindow);
      for (const bool avx2 : {false, true}) {
        std::vector<std::size_t> prefilter_out;
        ef::core::matchkern::soa_prefilter_match(view, rule.genes(), 0, kCount,
                                                 prefilter_out, nullptr, avx2);
        EXPECT_EQ(prefilter_out, oracle_out)
            << "wc=" << wc << " trial=" << trial << " avx2=" << avx2;
      }
      // Any row containing NaN must be absent unless every NaN lag is
      // wildcarded.
      for (const std::size_t i : {std::size_t{5}, std::size_t{20}, std::size_t{33}}) {
        const std::size_t nan_lag = i == 5 ? 1 : (i == 20 ? 0 : 2);
        if (!rule.genes()[nan_lag].is_wildcard()) {
          EXPECT_TRUE(std::find(oracle_out.begin(), oracle_out.end(), i) ==
                      oracle_out.end())
              << "row " << i << " with NaN at bounded lag matched";
        }
      }
    }
  }
}

TEST(MatchBackends, RuleMajorBatchAgreesOnRandomRuleSets) {
  const TimeSeries s = random_series(3000, 41);
  const WindowDataset data(s, 5, 1);
  std::uint64_t seed = 7000;
  ef::util::Rng sizes(99);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n_rules = 1 + sizes.index(70);  // crosses the 32/16 lane pads
    std::vector<Rule> rules;
    rules.reserve(n_rules);
    for (std::size_t r = 0; r < n_rules; ++r) {
      rules.push_back(random_rule(5, 0.25 * static_cast<double>(r % 5), ++seed));
    }
    expect_match_all_matches_oracle(s, data, rules, nullptr, "random-set");
  }
}

TEST(MatchBackends, RuleMajorBatchEdgeCases) {
  const TimeSeries s = random_series(6000, 43);
  const WindowDataset data(s, 4, 1);
  ef::util::ThreadPool pool(4);

  // Empty rule set: no planes, no output.
  expect_match_all_matches_oracle(s, data, {}, nullptr, "empty-set");

  std::vector<Rule> rules;
  // All-genes-wildcard (matches everything), impossible interval (matches
  // nothing), and dimension-mismatch rules (matches nothing, inactive lane)
  // mixed with random ones.
  rules.emplace_back(std::vector<Interval>(4, Interval::wildcard()));
  {
    std::vector<Interval> genes(4, Interval::wildcard());
    genes[2] = Interval(2.0, 3.0);  // values live in [0,1)
    rules.emplace_back(std::move(genes));
  }
  rules.emplace_back(std::vector<Interval>(3, Interval::wildcard()));  // too narrow
  rules.emplace_back(std::vector<Interval>(6, Interval::wildcard()));  // too wide
  std::uint64_t seed = 8100;
  for (int r = 0; r < 40; ++r) rules.push_back(random_rule(4, 0.3, ++seed));

  // Serial and parallel chunked paths must both agree with the oracle.
  expect_match_all_matches_oracle(s, data, rules, nullptr, "edge-serial");
  expect_match_all_matches_oracle(s, data, rules, &pool, "edge-parallel");
}

/// Row-major windows and their bytes through one byte map, viewed the way
/// the rule-major kernels read them.
struct RowBlock {
  std::vector<double> rows;
  std::vector<std::uint8_t> qrows;
  ef::core::LagMajorView view{};

  RowBlock(std::vector<double> values, std::size_t window, double qmin, double qinv)
      : rows(std::move(values)), qrows(rows.size()) {
    for (std::size_t k = 0; k < rows.size(); ++k) {
      qrows[k] = ef::core::quantize_value(rows[k], qmin, qinv);
    }
    view.count = rows.size() / window;
    view.window = window;
    view.rows = rows.data();
    view.qrows = qrows.data();
    view.qmin = qmin;
    view.qinv = qinv;
  }
};

ef::core::RulePlanes planes_of(const std::vector<Rule>& rules, std::size_t window, double qmin,
                               double qinv) {
  std::vector<std::span<const Interval>> genes;
  genes.reserve(rules.size());
  for (const Rule& rule : rules) genes.emplace_back(rule.genes());
  return ef::core::build_rule_planes(genes, window, qmin, qinv);
}

/// Both rule-major entry points at both SIMD widths against the oracle's
/// exact scan (the comparisons verify_rule_row makes): every window's voter
/// list, and every rule's match list.
void expect_rule_major_exact(const RowBlock& block, const std::vector<Rule>& rules,
                             double qmin, double qinv, const std::string& what) {
  const std::size_t count = block.view.count;
  const std::size_t d = block.view.window;
  const ef::core::RulePlanes planes = planes_of(rules, d, qmin, qinv);
  std::vector<std::vector<std::size_t>> per_rule(rules.size());
  std::vector<std::vector<std::size_t>> per_window(count);
  for (std::size_t r = 0; r < rules.size(); ++r) {
    per_rule[r] = ef::oracle::match_rows(rules[r].genes(), block.rows.data(), count, d);
    for (const std::size_t i : per_rule[r]) per_window[i].push_back(r);
  }
  for (const bool avx2 : {false, true}) {
    std::vector<std::vector<std::size_t>> voters(count);
    ef::core::matchkern::window_major_match(block.view, planes, 0, count, voters, avx2);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(voters[i], per_window[i]) << what << " avx2=" << avx2 << " window=" << i;
    }
    std::vector<std::vector<std::size_t>> matched(rules.size());
    ef::core::matchkern::rule_major_match(block.view, planes, 0, count, matched, avx2);
    for (std::size_t r = 0; r < rules.size(); ++r) {
      ASSERT_EQ(matched[r], per_rule[r]) << what << " avx2=" << avx2 << " rule=" << r;
    }
  }
}

TEST(MatchBackends, RuleMajorKernelNanSemantics) {
  // Ad-hoc view with NaN cells (TimeSeries rejects non-finite input, so this
  // probes the kernel layer directly): quantized mirrors are built with the
  // same monotone map the dataset uses, NaN quantizing to 0. A bounded gene
  // must reject NaN rows, a wildcard must accept them — identically to the
  // oracle's scan.
  constexpr std::size_t kWindow = 3;
  constexpr std::size_t kCount = 64;
  ef::util::Rng rng(23);
  std::vector<double> rows(kCount * kWindow);
  for (double& x : rows) x = rng.uniform(0.0, 1.0);
  rows[4 * kWindow + 1] = std::numeric_limits<double>::quiet_NaN();
  rows[17 * kWindow + 0] = std::numeric_limits<double>::quiet_NaN();
  rows[50 * kWindow + 2] = std::numeric_limits<double>::quiet_NaN();
  const double qmin = 0.0;
  const double qinv = 255.0;  // values in [0,1)
  const RowBlock block(std::move(rows), kWindow, qmin, qinv);

  std::uint64_t seed = 310;
  for (const double wc : {0.0, 0.5, 1.0}) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<Rule> rules;
      for (int r = 0; r < 37; ++r) rules.push_back(random_rule(kWindow, wc, ++seed));
      expect_rule_major_exact(block, rules, qmin, qinv,
                              "wc=" + std::to_string(wc) + " trial=" + std::to_string(trial));
    }
  }
}

TEST(MatchBackends, RuleMajorCertifiedBytesAreExact) {
  // The strict-interior byte planes let the SIMD bodies accept a candidate
  // without exact verification. Gene bounds here sit exactly on the byte
  // map's cell edges and one ulp either side, and window values sit exactly
  // on those bounds and beside them — the values a certificate one byte too
  // loose would wrongly accept — plus NaN, ±inf and ±1e300. Maps: a
  // spread one, a coarse one that clamps most values to bytes 0/255 (genes
  // with q(lo) == 255 or q(hi) == 0), the degenerate qinv == 0 map of a rule
  // set whose genes collapse to one value, and qinv == inf.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Map {
    double qmin;
    double qinv;
  };
  const Map maps[] = {{-1.0, 255.0 / 3.0}, {0.5, 255.0}, {0.0, 0.0}, {0.25, inf}};
  ef::util::Rng rng(2027);
  for (const Map& map : maps) {
    // Cell edges of the map over [-1, 2], one ulp either side included.
    std::vector<double> edges;
    for (int k = 0; k <= 256; k += 3) {
      const double e = map.qinv > 0.0 && map.qinv < inf
                           ? map.qmin + static_cast<double>(k) / map.qinv
                           : -1.0 + 3.0 * static_cast<double>(k) / 256.0;
      edges.insert(edges.end(), {std::nextafter(e, -inf), e, std::nextafter(e, inf)});
    }
    edges.insert(edges.end(), {map.qmin, std::nextafter(map.qmin, -inf),
                               std::nextafter(map.qmin, inf)});
    for (const std::size_t d : {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
      for (const std::size_t n_rules :
           {std::size_t{1}, std::size_t{15}, std::size_t{17}, std::size_t{33}, std::size_t{70}}) {
        std::vector<Rule> rules;
        std::vector<double> bounds;  // every bounded gene's lo and hi
        for (std::size_t r = 0; r < n_rules; ++r) {
          std::vector<Interval> genes;
          const bool all_wild = rng.bernoulli(0.1);
          for (std::size_t j = 0; j < d; ++j) {
            if (all_wild || rng.bernoulli(0.25)) {
              genes.push_back(Interval::wildcard());
              continue;
            }
            double lo = edges[rng.index(edges.size())];
            double hi = rng.bernoulli(0.1) ? lo : edges[rng.index(edges.size())];
            if (lo > hi) std::swap(lo, hi);
            genes.emplace_back(lo, hi);
            bounds.insert(bounds.end(), {lo, hi});
          }
          rules.emplace_back(std::move(genes));
        }
        const double specials[] = {nan, inf, -inf, 1e300, -1e300};
        std::vector<double> values(200 * d);
        for (double& v : values) {
          const double pick = rng.uniform(0.0, 1.0);
          if (pick < 0.05) {
            v = specials[rng.index(std::size(specials))];
          } else if (pick < 0.6 && !bounds.empty()) {
            const double b = bounds[rng.index(bounds.size())];
            const double side = rng.uniform(0.0, 1.0);
            v = side < 0.5 ? b : std::nextafter(b, side < 0.75 ? -inf : inf);
          } else {
            v = edges[rng.index(edges.size())];
          }
        }
        const RowBlock block(std::move(values), d, map.qmin, map.qinv);
        expect_rule_major_exact(block, rules, map.qmin, map.qinv,
                                "qinv=" + std::to_string(map.qinv) + " d=" +
                                    std::to_string(d) + " rules=" + std::to_string(n_rules));
      }
    }
  }

  // A rule set whose bounded genes collapse to one value compiles to the
  // degenerate map: every byte is 0, so nothing is certified and every
  // candidate is verified.
  std::vector<Rule> point;
  for (int r = 0; r < 19; ++r) {
    point.emplace_back(std::vector<Interval>{
        r % 3 == 0 ? Interval::wildcard() : Interval(0.5, 0.5), Interval(0.5, 0.5)});
  }
  const RowBlock block({0.5, 0.5, std::nextafter(0.5, inf), 0.5, 0.5, nan, inf, 0.5, 0.5,
                        std::nextafter(0.5, -inf)},
                       2, 0.0, 0.0);
  expect_rule_major_exact(block, point, 0.0, 0.0, "point genes");
}

TEST(MatchBackends, WindowMajorEqualsRuleMajor) {
  // The window-major entry point transposes rule_major_match's output
  // exactly — over the whole dataset and over ranges split at offsets that
  // are not multiples of either lane width, at both SIMD widths.
  const TimeSeries s = random_series(3000, 47);
  const WindowDataset data(s, 5, 1);
  const std::size_t m = data.count();
  const ef::core::LagMajorView view = data.lag_major();
  std::uint64_t seed = 9100;
  ef::util::Rng sizes(5);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n_rules = 1 + sizes.index(90);
    std::vector<Rule> rules;
    for (std::size_t r = 0; r < n_rules; ++r) {
      rules.push_back(random_rule(5, 0.25 * static_cast<double>(r % 5), ++seed));
    }
    const ef::core::RulePlanes planes = planes_of(rules, 5, view.qmin, view.qinv);
    for (const bool avx2 : {false, true}) {
      std::vector<std::vector<std::size_t>> per_rule(n_rules);
      ef::core::matchkern::rule_major_match(view, planes, 0, m, per_rule, avx2);

      std::vector<std::vector<std::size_t>> transposed(n_rules);
      const std::size_t cuts[] = {0, 37, m / 2 + 5, m};
      for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
        std::vector<std::vector<std::size_t>> voters(cuts[c + 1] - cuts[c]);
        ef::core::matchkern::window_major_match(view, planes, cuts[c], cuts[c + 1], voters,
                                                avx2);
        for (std::size_t k = 0; k < voters.size(); ++k) {
          ASSERT_TRUE(std::is_sorted(voters[k].begin(), voters[k].end()));
          for (const std::size_t r : voters[k]) transposed[r].push_back(cuts[c] + k);
        }
      }
      EXPECT_EQ(transposed, per_rule) << "trial=" << trial << " avx2=" << avx2;
    }
  }
}

TEST(MatchBackends, QuantizeValueMapsNanProductsToByteZero) {
  // A NaN product — ±inf under the degenerate qinv == 0 map, v == qmin
  // under qinv == inf, or a NaN value — is byte 0, never an undefined NaN
  // float-to-integer conversion; the map stays monotone.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {inf, -inf, nan, 1.0, -1e300, 1e300}) {
    EXPECT_EQ(ef::core::quantize_value(v, 1.0, 0.0), 0) << v;
  }
  EXPECT_EQ(ef::core::quantize_value(1.0, 1.0, inf), 0);
  EXPECT_EQ(ef::core::quantize_value(2.0, 1.0, inf), 255);
  EXPECT_EQ(ef::core::quantize_value(0.0, 1.0, inf), 0);
  EXPECT_EQ(ef::core::quantize_value(inf, 0.0, 255.0), 255);
  EXPECT_EQ(ef::core::quantize_value(-inf, 0.0, 255.0), 0);
  EXPECT_EQ(ef::core::quantize_value(nan, 0.0, 255.0), 0);
}

}  // namespace
