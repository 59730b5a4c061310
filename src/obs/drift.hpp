// obs/drift.hpp — Page–Hinkley change detection over a scalar error stream.
//
// The quality layer feeds each model's matured absolute forecast error into
// one of these; a sustained upward shift in the error level — the model's
// rules no longer describing the series (concept drift, regime change,
// sensor fault) — raises a drift signal that serving surfaces as a
// `drift.detected` event and a labelled gauge — the natural retrain trigger
// for a background-evolution loop, should one be built.
//
// Page–Hinkley in its standard one-sided (increase-detecting) form: track
// the cumulative deviation of samples from their running mean,
//
//   m_t = Σ_i (x_i − x̄_i − δ),    PH_t = m_t − min_{i ≤ t} m_i
//
// and signal when PH_t exceeds λ. δ absorbs benign magnitude jitter; λ sets
// the detection/false-alarm trade-off (larger = slower but surer). On
// detection the statistic resets so the new error level becomes the
// baseline; the detector reports "cleared" once the stream has stayed
// in-control for `clear_after` consecutive samples — i.e. the error process
// is stationary again, possibly at a new level.
//
// Deliberately a plain value type: no locks (callers hold their per-model
// lock), no instrumentation (the serve layer emits the events), compiled
// identically under EVOFORECAST_OBS=OFF — so it is unit-testable in both
// build modes and reusable by offline analysis.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ef::obs {

struct DriftConfig {
  /// Tolerated per-sample magnitude drift; deviations below this never
  /// accumulate. Scale-dependent — pick ~10 % of the expected error level.
  double delta = 0.05;
  /// Detection threshold on the PH statistic. Roughly: a level shift of S
  /// fires after ~λ / (S − δ) samples.
  double lambda = 5.0;
  /// Samples required before a detection can fire (guards the cold-start
  /// mean estimate).
  std::size_t min_samples = 8;
  /// Consecutive in-control samples after a detection before the drift is
  /// reported cleared.
  std::size_t clear_after = 32;
};

class DriftDetector {
 public:
  enum class Signal {
    kNone,      ///< stream in control (or still drifted, not yet cleared)
    kDetected,  ///< this sample pushed the PH statistic over lambda
    kCleared,   ///< clear_after in-control samples since the last detection
  };

  explicit DriftDetector(DriftConfig config = {}) : config_(config) {}

  /// Feed one sample; returns the edge signal for THIS sample (state
  /// transitions only — steady drifted/stable periods return kNone).
  Signal update(double x) {
    ++n_;
    mean_ += (x - mean_) / static_cast<double>(n_);
    cum_ += x - mean_ - config_.delta;
    if (cum_ < min_cum_) min_cum_ = cum_;
    const bool over = n_ >= config_.min_samples && statistic() > config_.lambda;
    if (over) {
      // New regime becomes the baseline: reset the statistic so a *further*
      // shift is detectable and the clear countdown measures stationarity.
      reset_statistic();
      quiet_ = 0;
      if (!drifted_) {
        drifted_ = true;
        ++detections_;
        return Signal::kDetected;
      }
      return Signal::kNone;  // re-trigger while already drifted: stay put
    }
    if (drifted_ && ++quiet_ >= config_.clear_after) {
      drifted_ = false;
      quiet_ = 0;
      return Signal::kCleared;
    }
    return Signal::kNone;
  }

  [[nodiscard]] bool drifted() const noexcept { return drifted_; }
  /// Current PH statistic m_t − min m_i (0 right after detection/reset).
  [[nodiscard]] double statistic() const noexcept { return cum_ - min_cum_; }
  [[nodiscard]] std::size_t samples() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t detections() const noexcept { return detections_; }
  [[nodiscard]] const DriftConfig& config() const noexcept { return config_; }

  /// Forget everything, including the drifted flag and detection count.
  void reset() {
    reset_statistic();
    drifted_ = false;
    quiet_ = 0;
    detections_ = 0;
  }

 private:
  void reset_statistic() {
    n_ = 0;
    mean_ = 0.0;
    cum_ = 0.0;
    min_cum_ = 0.0;
  }

  DriftConfig config_;
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double cum_ = 0.0;
  double min_cum_ = 0.0;
  bool drifted_ = false;
  std::size_t quiet_ = 0;
  std::uint64_t detections_ = 0;
};

}  // namespace ef::obs
