// Forecast-quality tracking: lazy arming, ledger ring wraparound,
// out-of-order/duplicate actuals, overdue gap handling, rolling-stat
// exactness, interval coverage, bounded-cardinality exposition, and the
// interval/ledger plumbing through ForecastService. The quality layer is a
// product feature, not instrumentation — this whole file passes unchanged
// under EVOFORECAST_OBS=OFF (the obs-off CI job runs it).
#include "serve/quality.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/interval.hpp"
#include "core/rule.hpp"
#include "core/rule_system.hpp"
#include "serve/model_store.hpp"
#include "serve/service.hpp"

namespace {

using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::serve::ForecastService;
using ef::serve::ModelStore;
using ef::serve::PredictRequest;
using ef::serve::QualityOptions;
using ef::serve::QualityTracker;
using ef::serve::ServeOptions;

QualityOptions small_options(std::size_t ledger = 8, std::size_t window = 8) {
  QualityOptions options;
  options.ledger_capacity = ledger;
  options.window = window;
  return options;
}

TEST(QualityTracker, DisarmedUntilFirstObserve) {
  QualityTracker tracker(small_options());
  EXPECT_FALSE(tracker.armed());

  // Pre-arming forecasts are the hot-path no-op: nothing is tracked.
  tracker.record_forecast("m", 1, 0.5, 0.1, false);
  EXPECT_TRUE(tracker.snapshot().empty());

  const auto result = tracker.observe("m", 0.4);
  EXPECT_TRUE(tracker.armed());
  EXPECT_EQ(result.tick, 1u);
  EXPECT_FALSE(result.stale);
  EXPECT_EQ(result.matured, 0u);  // the pre-arming forecast was never recorded
  ASSERT_EQ(tracker.snapshot().size(), 1u);
}

TEST(QualityTracker, RecordTracksOnlyObservedModels) {
  QualityTracker tracker(small_options());
  tracker.observe("known", 0.0);  // arms, creates "known"
  tracker.record_forecast("unknown", 1, 0.5, 0.1, false);
  const auto models = tracker.snapshot();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].model, "known");
}

TEST(QualityTracker, MaturesAtDueTickWithExactStats) {
  QualityTracker tracker(small_options());
  tracker.observe("m", 0.0);                     // tick 1
  tracker.record_forecast("m", 1, 1.0, 0.5, false);  // due tick 2

  const auto result = tracker.observe("m", 1.2);  // tick 2: matures it
  EXPECT_EQ(result.tick, 2u);
  EXPECT_EQ(result.matured, 1u);
  EXPECT_EQ(result.pending, 0u);

  const auto models = tracker.snapshot();
  ASSERT_EQ(models.size(), 1u);
  const auto& m = models[0];
  EXPECT_EQ(m.window_n, 1u);
  EXPECT_EQ(m.window_scored, 1u);
  EXPECT_NEAR(m.mae, 0.2, 1e-12);
  EXPECT_NEAR(m.rmse, 0.2, 1e-12);
  EXPECT_NEAR(m.smape, 200.0 * 0.2 / (1.0 + 1.2), 1e-12);
  // |1.0 - 1.2| = 0.2 <= bound 0.5: the interval covered the actual.
  EXPECT_EQ(m.window_intervals, 1u);
  EXPECT_DOUBLE_EQ(m.coverage, 1.0);
  EXPECT_DOUBLE_EQ(m.abstain_share, 0.0);
}

TEST(QualityTracker, IntervalCoverageCountsMissesAndExclusions) {
  QualityTracker tracker(small_options());
  tracker.observe("m", 0.0);                          // tick 1
  tracker.record_forecast("m", 1, 1.0, 0.1, false);   // miss: err 0.2 > 0.1
  tracker.observe("m", 1.2);                          // tick 2
  tracker.record_forecast("m", 1, 1.0, -1.0, false);  // no interval at all
  tracker.observe("m", 1.0);                          // tick 3

  const auto m = tracker.snapshot()[0];
  EXPECT_EQ(m.window_scored, 2u);
  EXPECT_EQ(m.window_intervals, 1u);  // the bound-less entry is excluded
  EXPECT_DOUBLE_EQ(m.coverage, 0.0);  // the one interval missed
}

TEST(QualityTracker, AbstentionsCountedButNotErrorScored) {
  QualityTracker tracker(small_options());
  tracker.observe("m", 0.0);
  tracker.record_forecast("m", 1, 0.0, -1.0, true);   // abstained
  tracker.record_forecast("m", 1, 2.0, 0.1, false);
  tracker.observe("m", 2.0);

  const auto m = tracker.snapshot()[0];
  EXPECT_EQ(m.matured, 2u);
  EXPECT_EQ(m.scored, 1u);
  EXPECT_EQ(m.window_n, 2u);
  EXPECT_EQ(m.window_scored, 1u);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);  // only the perfect covered forecast scored
  EXPECT_DOUBLE_EQ(m.abstain_share, 0.5);
}

TEST(QualityTracker, StaleAndDuplicateActualsAreIgnored) {
  QualityTracker tracker(small_options());
  tracker.observe("m", 0.0, 5);  // explicit t: tick 5
  tracker.record_forecast("m", 1, 1.0, 0.5, false);

  // t == tick and t < tick are both stale: clock untouched, nothing scored.
  for (const std::uint64_t t : {5ULL, 3ULL}) {
    const auto result = tracker.observe("m", 9.9, t);
    EXPECT_TRUE(result.stale);
    EXPECT_EQ(result.tick, 5u);
    EXPECT_EQ(result.matured, 0u);
    EXPECT_EQ(result.pending, 1u);
  }
  const auto m = tracker.snapshot()[0];
  EXPECT_EQ(m.stale, 2u);
  EXPECT_EQ(m.observed, 1u);
  EXPECT_EQ(m.matured, 0u);

  // The real actual still matures the forecast normally afterwards.
  const auto result = tracker.observe("m", 1.0, 6);
  EXPECT_FALSE(result.stale);
  EXPECT_EQ(result.matured, 1u);
}

TEST(QualityTracker, ClockJumpDropsGapEntriesAsOverdue) {
  QualityTracker tracker(small_options());
  tracker.observe("m", 0.0);                         // tick 1
  tracker.record_forecast("m", 1, 1.0, 0.5, false);  // due tick 2
  tracker.record_forecast("m", 9, 1.0, 0.5, false);  // due tick 10

  const auto result = tracker.observe("m", 1.0, 10);  // jump over tick 2
  EXPECT_EQ(result.tick, 10u);
  EXPECT_EQ(result.overdue, 1u);  // the due-2 entry had no actual, ever
  EXPECT_EQ(result.matured, 1u);  // the due-10 entry matured on arrival
  EXPECT_EQ(result.pending, 0u);
  EXPECT_EQ(tracker.snapshot()[0].overdue, 1u);
}

TEST(QualityTracker, LedgerRingWrapsAndEvicts) {
  QualityTracker tracker(small_options(/*ledger=*/4));
  tracker.observe("m", 0.0);  // tick 1
  for (int i = 0; i < 6; ++i) {
    tracker.record_forecast("m", 1, static_cast<double>(i), 0.5, false);
  }
  auto m = tracker.snapshot()[0];
  EXPECT_EQ(m.pending, 4u);  // ring capacity
  EXPECT_EQ(m.evicted, 2u);  // the two oldest pending forecasts dropped

  const auto result = tracker.observe("m", 4.0);
  EXPECT_EQ(result.matured, 4u);  // survivors (values 2..5) all due tick 2
  EXPECT_EQ(result.pending, 0u);
  // Re-filling after maturation evicts nothing: the slots are free again.
  for (int i = 0; i < 4; ++i) {
    tracker.record_forecast("m", 1, 0.0, 0.5, false);
  }
  EXPECT_EQ(tracker.snapshot()[0].evicted, 2u);
}

TEST(QualityTracker, RollingWindowKeepsOnlyTheLastN) {
  QualityTracker tracker(small_options(/*ledger=*/8, /*window=*/4));
  tracker.observe("m", 0.0);
  // Mature 6 forecasts with absolute errors 1..6 (predicted i, actual 0).
  for (int i = 1; i <= 6; ++i) {
    tracker.record_forecast("m", 1, static_cast<double>(i), -1.0, false);
    tracker.observe("m", 0.0);
  }
  const auto m = tracker.snapshot()[0];
  EXPECT_EQ(m.matured, 6u);
  EXPECT_EQ(m.window_n, 4u);  // errors 1 and 2 rolled out
  EXPECT_NEAR(m.mae, (3.0 + 4.0 + 5.0 + 6.0) / 4.0, 1e-12);
  EXPECT_NEAR(m.rmse, std::sqrt((9.0 + 16.0 + 25.0 + 36.0) / 4.0), 1e-12);
}

TEST(QualityTracker, DriftSignalsSurfaceInObserveResult) {
  QualityOptions options = small_options(/*ledger=*/8, /*window=*/8);
  options.drift.lambda = 2.0;
  options.drift.min_samples = 4;
  options.drift.clear_after = 4;
  QualityTracker tracker(options);
  tracker.observe("m", 0.0);

  // Accurate regime, then the actuals shift far away from the forecasts.
  bool detected = false;
  for (int i = 0; i < 40 && !detected; ++i) {
    tracker.record_forecast("m", 1, 1.0, 0.1, false);
    detected = tracker.observe("m", i < 10 ? 1.0 : 6.0).drift_detected;
  }
  ASSERT_TRUE(detected);
  auto m = tracker.snapshot()[0];
  EXPECT_TRUE(m.drifted);
  EXPECT_EQ(m.drift_detections, 1u);

  // Staying at the (bad) level is the new baseline; it eventually clears.
  bool cleared = false;
  for (int i = 0; i < 40 && !cleared; ++i) {
    tracker.record_forecast("m", 1, 1.0, 0.1, false);
    cleared = tracker.observe("m", 6.0).drift_cleared;
  }
  EXPECT_TRUE(cleared);
  EXPECT_FALSE(tracker.snapshot()[0].drifted);
}

TEST(QualityTracker, ExpositionBoundsCardinalityToTopKPlusFleet) {
  QualityOptions options = small_options();
  options.top_k = 1;
  QualityTracker tracker(options);
  // "bad" carries the larger rolling RMSE, "good" the smaller.
  tracker.observe("bad", 0.0);
  tracker.observe("good", 0.0);
  tracker.record_forecast("bad", 1, 5.0, 0.1, false);
  tracker.observe("bad", 0.0);  // error 5
  tracker.record_forecast("good", 1, 0.1, 0.5, false);
  tracker.observe("good", 0.0);  // error 0.1

  std::string out;
  tracker.render_prometheus(out, {});
  EXPECT_NE(out.find("# TYPE ef_quality_rmse gauge\n"), std::string::npos) << out;
  EXPECT_NE(out.find("ef_quality_rmse{model=\"bad\"} 5"), std::string::npos) << out;
  EXPECT_NE(out.find("ef_quality_rmse{model=\"_fleet\"}"), std::string::npos) << out;
  // top_k = 1: the better model is not exported as its own series.
  EXPECT_EQ(out.find("{model=\"good\"}"), std::string::npos) << out;
  EXPECT_NE(out.find("ef_quality_models 2"), std::string::npos) << out;
  EXPECT_NE(out.find("ef_quality_armed 1"), std::string::npos) << out;
  // Counters follow the Prometheus naming convention checked in CI.
  EXPECT_NE(out.find("# TYPE ef_quality_observed_total counter\n"), std::string::npos);
}

TEST(QualityTracker, UnscoredModelsExportNaNNotZero) {
  QualityTracker tracker(small_options());
  tracker.observe("m", 0.0);  // tracked, but nothing matured yet
  std::string out;
  tracker.render_prometheus(out, {});
  // A fabricated rmse of 0 would read as "perfect"; NaN reads as "no data".
  EXPECT_NE(out.find("ef_quality_rmse{model=\"m\"} NaN"), std::string::npos) << out;
  EXPECT_NE(out.find("ef_quality_coverage_ratio{model=\"m\"} NaN"), std::string::npos);
}

TEST(QualityTracker, ZeroCapacityDisablesTracking) {
  QualityOptions options;
  options.ledger_capacity = 0;
  QualityTracker tracker(options);
  const auto result = tracker.observe("m", 1.0);
  EXPECT_EQ(result.tick, 0u);
  EXPECT_FALSE(tracker.armed());
  EXPECT_TRUE(tracker.snapshot().empty());
  std::string out;
  tracker.render_prometheus(out, {});
}

// --- plumbing through ForecastService -------------------------------------

/// One rule covering [0,2]^2 with a known residual bound, so the expected
/// interval half-width is exactly max_abs_residual.
RuleSystem covering_system() {
  Rule rule({Interval(0.0, 2.0), Interval(0.0, 2.0)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {0.3, 0.6, 0.05};
  part.fit.mean_prediction = 0.5;
  part.fit.max_abs_residual = 0.01;
  part.matches = 5;
  part.fitness = 2.0;
  rule.set_predicting(part);
  RuleSystem system;
  system.add_rules({rule}, false, -1.0);
  return system;
}

PredictRequest request_for(std::vector<double> window, std::size_t horizon = 1) {
  PredictRequest req;
  req.model = "m";
  req.window = std::move(window);
  req.horizon = horizon;
  return req;
}

TEST(ServiceQuality, CoveredPredictCarriesTheRuleBound) {
  ModelStore store;
  store.add_system("m", covering_system());
  ForecastService service(store);

  const auto r = service.predict(request_for({0.5, 0.5}));
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(r.abstain);
  // Single voting rule: bound = its max_abs_residual + |its value − agg| = e.
  EXPECT_DOUBLE_EQ(r.bound, 0.01);

  // Out-of-domain probe abstains and ships no bound.
  const auto abstain = service.predict(request_for({5.0, 5.0}));
  ASSERT_TRUE(abstain.ok);
  EXPECT_TRUE(abstain.abstain);
  EXPECT_LT(abstain.bound, 0.0);

  // Iterated chains do not compose the one-step bound.
  const auto multi = service.predict(request_for({0.5, 0.5}, 3));
  ASSERT_TRUE(multi.ok);
  EXPECT_FALSE(multi.abstain);
  EXPECT_LT(multi.bound, 0.0);
}

TEST(ServiceQuality, CacheHitsReturnTheOriginalBound) {
  ModelStore store;
  store.add_system("m", covering_system());
  ForecastService service(store);

  const auto cold = service.predict(request_for({0.25, 0.75}));
  ASSERT_TRUE(cold.ok);
  EXPECT_FALSE(cold.cached);
  const auto hit = service.predict(request_for({0.25, 0.75}));
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cached);
  EXPECT_DOUBLE_EQ(hit.bound, cold.bound);
}

TEST(ServiceQuality, ServiceFeedsTheLedgerOnceArmed) {
  ModelStore store;
  store.add_system("m", covering_system());
  ForecastService service(store);
  ASSERT_NE(service.quality(), nullptr);

  // Unarmed: predictions leave no quality state behind.
  ASSERT_TRUE(service.predict(request_for({0.5, 0.5})).ok);
  EXPECT_TRUE(service.quality()->snapshot().empty());

  // Arm with an actual, predict, and the forecast lands in the ledger.
  service.quality()->observe("m", 0.5);
  PredictRequest fresh = request_for({0.5, 0.6});
  fresh.use_cache = false;
  ASSERT_TRUE(service.predict(fresh).ok);
  const auto models = service.quality()->snapshot();
  ASSERT_EQ(models.size(), 1u);
  EXPECT_EQ(models[0].pending, 1u);

  const auto result = service.quality()->observe("m", 0.66);
  EXPECT_EQ(result.matured, 1u);
}

TEST(ServiceQuality, DisabledByOptionsMeansNoTracker) {
  ModelStore store;
  store.add_system("m", covering_system());
  ServeOptions options;
  options.quality.ledger_capacity = 0;
  ForecastService service(store, options);
  EXPECT_EQ(service.quality(), nullptr);
  // Forecasts are untouched by the absence of tracking.
  const auto r = service.predict(request_for({0.5, 0.5}));
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.bound, 0.01);
}

}  // namespace
