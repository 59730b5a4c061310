// serve/quality.hpp — forecast-quality tracking: prediction ledger, live
// accuracy scoring, and drift detection.
//
// The serving stack measures latency and throughput in depth but, until
// this layer, never whether its forecasts were RIGHT once reality arrived.
// QualityTracker closes that loop per model:
//
//   * a bounded PredictionLedger (ring) of issued forecasts — predicted
//     value, interval half-width e (the paper's rule error, surfaced as
//     "interval":[p−e, p+e] in v2 replies), horizon, rule-backed vs
//     abstained — each stamped with the model's observation tick and due at
//     tick + horizon;
//   * an observe() ingestion path ({"cmd":"observe"} on the wire) that
//     advances the model's tick with each realized value and matures every
//     ledger entry due at that tick: absolute/squared error, sMAPE term,
//     interval coverage (|p − actual| ≤ e), abstention share;
//   * rolling windowed quality — RMSE, MAE, sMAPE, coverage rate,
//     abstention share over the last `window` matured forecasts;
//   * a Page–Hinkley drift detector (obs/drift.hpp) over the matured
//     absolute-error stream, emitting drift.detected / drift.cleared
//     through the EventLog;
//   * a registered exposition provider rendering bounded-cardinality
//     ef_quality_*{model="…"} series — the configurable top-K worst models
//     by rolling RMSE plus a "_fleet" aggregate — into every Prometheus
//     scrape (container fleets of 1000+ series must not explode scrape
//     cardinality).
//
// Tick semantics. Each model carries its own observation clock, advanced
// only by observe(): an actual without an explicit "t" lands at tick+1; an
// explicit t > tick jumps the clock (entries due in the gap have no actual
// and are dropped as overdue); t ≤ tick is a duplicate or out-of-order
// actual — counted stale, clock untouched, nothing matured twice. A
// forecast issued at tick T with horizon h matures against the actual at
// tick T + h.
//
// Cost model. The tracker arms lazily: until the first observe() arrives,
// record_forecast() is one relaxed atomic load and a branch — the predict
// hot path pays nothing when no actuals are flowing (and forecasts issued
// before arming are simply not scored). Once armed, recording takes the
// model's mutex for a ring write; models never observed are never tracked,
// so a container fleet only pays for the series actually being scored.
//
// Everything here is a product feature, not instrumentation: it compiles
// and functions identically under EVOFORECAST_OBS=OFF (only the macro
// emissions — events, counters, spans — vanish), and it never alters a
// forecast value.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/drift.hpp"
#include "obs/exposition.hpp"

namespace ef::serve {

struct QualityOptions {
  /// Per-model ledger capacity; the oldest pending forecast is evicted when
  /// a full ring records a new one. 0 disables quality tracking entirely.
  std::size_t ledger_capacity = 1024;
  /// Matured forecasts in the rolling quality window (RMSE/MAE/sMAPE/
  /// coverage/abstention are computed over the last this-many).
  std::size_t window = 256;
  /// Labelled models in the Prometheus exposition: the top-K worst by
  /// rolling RMSE, plus the "_fleet" aggregate.
  std::size_t top_k = 5;
  obs::DriftConfig drift;
};

class QualityTracker {
 public:
  explicit QualityTracker(QualityOptions options = {});
  ~QualityTracker();

  QualityTracker(const QualityTracker&) = delete;
  QualityTracker& operator=(const QualityTracker&) = delete;

  /// Record one issued forecast into the model's ledger. No-op until the
  /// tracker is armed, and for models never observed. `bound` < 0 = no
  /// interval available (excluded from coverage, still error-scored).
  void record_forecast(std::string_view model, std::size_t horizon, double value,
                       double bound, bool abstained);

  struct ObserveResult {
    std::uint64_t tick = 0;   ///< the model's clock after this observation
    std::size_t matured = 0;  ///< ledger entries scored against this actual
    std::size_t overdue = 0;  ///< entries dropped (their tick had no actual)
    std::size_t pending = 0;  ///< entries still awaiting a future actual
    bool stale = false;       ///< t ≤ current tick: ignored, clock untouched
    bool drift_detected = false;
    bool drift_cleared = false;
  };
  /// Ingest one realized value for `model`. Arms the tracker on first use.
  ObserveResult observe(std::string_view model, double actual,
                        std::optional<std::uint64_t> t = std::nullopt);

  struct ModelSnapshot {
    std::string model;
    std::uint64_t tick = 0;
    std::size_t pending = 0;
    std::uint64_t observed = 0;  ///< actuals ingested (stale ones excluded)
    std::uint64_t matured = 0;   ///< forecasts scored or counted abstained
    std::uint64_t scored = 0;    ///< matured with a value (error-scored)
    std::uint64_t overdue = 0;   ///< dropped: actual for their tick never came
    std::uint64_t stale = 0;     ///< duplicate / out-of-order actuals ignored
    std::uint64_t evicted = 0;   ///< pending forecasts pushed out of a full ring
    // Rolling window (last `QualityOptions::window` matured forecasts).
    std::size_t window_n = 0;       ///< matured entries in the window
    std::size_t window_scored = 0;  ///< of which carried a value
    double rmse = 0.0;              ///< meaningful when window_scored > 0
    double mae = 0.0;
    double smape = 0.0;          ///< symmetric MAPE, percent
    double coverage = 0.0;       ///< share of interval-bearing entries with
                                 ///< |p − actual| ≤ e; see window_intervals
    std::size_t window_intervals = 0;
    double abstain_share = 0.0;  ///< abstained / window_n
    bool drifted = false;
    std::uint64_t drift_detections = 0;
    double drift_stat = 0.0;  ///< current Page–Hinkley statistic
  };
  /// Point-in-time snapshot of every tracked model, name order.
  [[nodiscard]] std::vector<ModelSnapshot> snapshot() const;

  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const QualityOptions& options() const noexcept { return options_; }

  /// Exposition provider body: # TYPE + labelled ef_quality_* samples for
  /// the top-K worst models and the "_fleet" aggregate. Registered with the
  /// obs provider registry at construction; public for direct testing.
  void render_prometheus(std::string& out, const obs::ExpositionOptions& options) const;

 private:
  struct ModelState;

  /// Find-or-create under map_mutex_; returns nullptr only for find-only
  /// misses.
  ModelState* state(std::string_view model, bool create);
  static void score(ModelState& st, double actual, ObserveResult& result);

  QualityOptions options_;
  std::atomic<bool> armed_{false};
  mutable std::mutex map_mutex_;  ///< guards the map shape; states have own locks
  std::map<std::string, std::unique_ptr<ModelState>, std::less<>> models_;
  std::uint64_t provider_id_ = 0;
};

}  // namespace ef::serve
