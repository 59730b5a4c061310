// Tests for obs/metrics.hpp + obs/export.hpp: registry semantics, concurrent
// counter increments through the instrumented thread pool, histogram quantile
// sanity against exact order statistics, and JSON/CSV export round-trips.
//
// The registries are process-wide, so every test either resets them first or
// uses metric names unique to that test.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/macros.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::obs::Histogram;
using ef::obs::Registry;

TEST(ObsCounter, AddValueReset) {
  auto& c = Registry::global().counter("obs.test.counter_basic");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistry, FindOrCreateReturnsSameInstrument) {
  auto& a = Registry::global().counter("obs.test.same_instance");
  auto& b = Registry::global().counter("obs.test.same_instance");
  EXPECT_EQ(&a, &b);
  auto& g1 = Registry::global().gauge("obs.test.same_gauge");
  auto& g2 = Registry::global().gauge("obs.test.same_gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(ObsRegistry, CrossKindNameCollisionThrows) {
  (void)Registry::global().counter("obs.test.collision");
  EXPECT_THROW((void)Registry::global().gauge("obs.test.collision"),
               std::invalid_argument);
  EXPECT_THROW((void)Registry::global().histogram("obs.test.collision"),
               std::invalid_argument);
}

TEST(ObsRegistry, ResetValuesKeepsCachedReferencesValid) {
  auto& c = Registry::global().counter("obs.test.reset_keep");
  c.add(7);
  Registry::global().reset_values();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  c.add(3);
  EXPECT_EQ(Registry::global().counter("obs.test.reset_keep").value(), 3u);
}

TEST(ObsGauge, SetAndAdd) {
  auto& g = Registry::global().gauge("obs.test.gauge");
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

// The acceptance-critical path: many pool workers hammering one counter via
// the macro fast path must lose no increments.
TEST(ObsCounter, ConcurrentIncrementsThroughParallelForAreExact) {
  auto& c = Registry::global().counter("obs.test.concurrent");
  c.reset();
  ef::util::ThreadPool pool(4);
  constexpr std::size_t kN = 200000;
  pool.parallel_for(
      0, kN,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) c.add(1);
      },
      64);  // small grain → genuinely pooled chunks
  EXPECT_EQ(c.value(), kN);
}

TEST(ObsCounter, MacroPathCountsOnlyWhenEnabled) {
  Registry::global().counter("obs.test.macro_counter").reset();
  ef::util::ThreadPool pool(4);
  constexpr std::size_t kN = 50000;
  pool.parallel_for(
      0, kN,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          EVOFORECAST_COUNT("obs.test.macro_counter", 1);
        }
      },
      64);
#if EVOFORECAST_OBS_ENABLED
  EXPECT_EQ(Registry::global().counter("obs.test.macro_counter").value(), kN);
#else
  EXPECT_EQ(Registry::global().counter("obs.test.macro_counter").value(), 0u);
#endif
}

TEST(ObsHistogram, QuantilesTrackExactOrderStatistics) {
  // Unit-width buckets make the interpolation error at most one bucket.
  std::vector<double> bounds;
  for (double b = 1.0; b <= 128.0; b += 1.0) bounds.push_back(b);
  auto& h = Registry::global().histogram("obs.test.hist_quantiles", bounds);
  h.reset();

  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(static_cast<double>(i));
  for (const double v : values) h.observe(v);

  const auto stats = h.stats();
  ASSERT_EQ(stats.count, values.size());
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const auto exact = [&](double q) {
    return sorted[static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1))];
  };
  EXPECT_NEAR(stats.p50, exact(0.50), 1.5);
  EXPECT_NEAR(stats.p90, exact(0.90), 1.5);
  EXPECT_NEAR(stats.p99, exact(0.99), 1.5);

  // Moments are exact (Welford), not bucket estimates.
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
  EXPECT_DOUBLE_EQ(stats.mean, 50.5);
  double var = 0.0;
  for (const double v : values) var += (v - 50.5) * (v - 50.5);
  EXPECT_NEAR(stats.stddev, std::sqrt(var / 100.0), 1e-9);
}

TEST(ObsHistogram, SingleObservationClampsQuantilesToExactValue) {
  auto& h = Registry::global().histogram("obs.test.hist_single");
  h.reset();
  h.observe(5.0);
  const auto stats = h.stats();
  EXPECT_EQ(stats.count, 1u);
  // Bucket interpolation would land somewhere in (4, 8]; clamping to the
  // exact [min, max] envelope pins it.
  EXPECT_DOUBLE_EQ(stats.p50, 5.0);
  EXPECT_DOUBLE_EQ(stats.p99, 5.0);
}

TEST(ObsHistogram, ConcurrentObservesLoseNothing) {
  auto& h = Registry::global().histogram("obs.test.hist_concurrent");
  h.reset();
  ef::util::ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  pool.parallel_for(
      0, kN,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          h.observe(static_cast<double>(i % 64));
        }
      },
      64);
  const auto stats = h.stats();
  EXPECT_EQ(stats.count, kN);
  std::uint64_t bucket_total = 0;
  for (const auto b : stats.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kN);
}

TEST(ObsSnapshot, SortedByName) {
  (void)Registry::global().counter("obs.test.zzz");
  (void)Registry::global().counter("obs.test.aaa");
  const auto snap = Registry::global().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.name < b.name; }));
}

// ---------------------------------------------------------------------------
// Export round-trip: the strict reader proves the emitted text is valid JSON;
// targeted substring checks prove the values survived.

TEST(ObsExport, JsonIsValidAndCarriesValues) {
  ef::obs::reset_all();
  Registry::global().counter("obs.test.json_counter").add(42);
  Registry::global().gauge("obs.test.json_gauge").set(1.5);
  Registry::global().histogram("obs.test.json_hist").observe(3.0);

  const auto report = ef::obs::capture_run_report();
  const std::string json = ef::obs::to_json(report);

  std::string error;
  EXPECT_TRUE(ef::json::parse(json, error).has_value()) << error << ": " << json;
  EXPECT_NE(json.find("\"obs.test.json_counter\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("obs.test.json_gauge"), std::string::npos);
  EXPECT_NE(json.find("obs.test.json_hist"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
}

TEST(ObsExport, CsvHasHeaderAndRows) {
  ef::obs::reset_all();
  Registry::global().counter("obs.test.csv_counter").add(9);
  const auto report = ef::obs::capture_run_report();
  const std::string csv = ef::obs::to_csv(report);
  EXPECT_EQ(csv.rfind("kind,name,field,value", 0), 0u);
  EXPECT_NE(csv.find("counter,obs.test.csv_counter,value,9"), std::string::npos) << csv;
}

TEST(ObsExport, FormatReportMentionsInstruments) {
  ef::obs::reset_all();
  Registry::global().counter("obs.test.report_counter").add(5);
  const auto report = ef::obs::capture_run_report();
  const std::string text = ef::obs::format_report(report);
  EXPECT_NE(text.find("obs.test.report_counter"), std::string::npos);
  EXPECT_NE(text.find("counters"), std::string::npos);
}

}  // namespace
