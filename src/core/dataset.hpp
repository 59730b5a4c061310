// dataset.hpp — sliding-window view of a series for rule evaluation.
//
// For window length D, embedding stride s and horizon τ, pattern i is
//   X_i = (x_i, x_{i+s}, …, x_{i+(D-1)s})
// with target v_i = x_{i+(D-1)s+τ}. The paper's encoding (§3.1) uses
// consecutive values (s = 1); the stride generalisation matches the delay
// embedding used by the Mackey-Glass comparators it quotes (RAN/MRAN take
// s(t), s(t−6), s(t−12), s(t−18) to predict s(t+τ)). Patterns are
// materialised once, row-contiguously (pattern(i) spans for the regression
// kernel, residuals and per-window forecasting), and mirrored as quantized
// bytes, both lag-major and row-major, for the match kernels (lag_major());
// everything is built once at construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/match_backend.hpp"
#include "series/timeseries.hpp"

namespace ef::core {

class WindowDataset {
 public:
  /// Build from a series. Throws std::invalid_argument when the series is
  /// too short for one pattern (size < (D−1)·stride + 1 + τ), or D == 0, or
  /// stride == 0.
  WindowDataset(const series::TimeSeries& s, std::size_t window, std::size_t horizon,
                std::size_t stride = 1);

  /// Window length D.
  [[nodiscard]] std::size_t window() const noexcept { return window_; }
  /// Prediction horizon τ.
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }
  /// Embedding stride s (1 = the paper's consecutive windows).
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  /// Number of patterns m = size − (D−1)·s − τ.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// Pattern X_i as a contiguous span of D values.
  [[nodiscard]] std::span<const double> pattern(std::size_t i) const noexcept {
    return {patterns_.data() + i * window_, window_};
  }

  /// The match kernels' view of every pattern: the row-major doubles plus
  /// the quantized byte mirrors — lag-major columns (column j is lag j
  /// across all windows, contiguous) for the prefilter kernel and row-major
  /// rows for the rule-major kernel (built once here, at construction).
  [[nodiscard]] LagMajorView lag_major() const noexcept {
    return LagMajorView{count_, window_, patterns_.data(), lag_major_q_.data(),
                        value_min_, qinv_, patterns_q_.data()};
  }

  /// Target v_i = x_{i+(D-1)·s+τ}.
  [[nodiscard]] double target(std::size_t i) const noexcept { return targets_[i]; }

  /// All targets, contiguous (regression accumulates over this directly).
  [[nodiscard]] std::span<const double> targets() const noexcept { return targets_; }

  /// The underlying raw series values.
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Smallest / largest value over the series (used to size wildcard extents
  /// and mutation steps).
  [[nodiscard]] double value_min() const noexcept { return value_min_; }
  [[nodiscard]] double value_max() const noexcept { return value_max_; }

  /// Smallest / largest *target*; the initialisation procedure stratifies
  /// over this output range (paper §3.2).
  [[nodiscard]] double target_min() const noexcept { return target_min_; }
  [[nodiscard]] double target_max() const noexcept { return target_max_; }

 private:
  std::vector<double> values_;
  std::vector<double> patterns_;  ///< row-major m×D packed windows
  std::vector<std::uint8_t> lag_major_q_;  ///< quantized D×m transpose of patterns_
  std::vector<std::uint8_t> patterns_q_;   ///< quantized mirror of patterns_ (row-major)
  std::vector<double> targets_;
  std::size_t window_ = 0;
  std::size_t horizon_ = 0;
  std::size_t stride_ = 1;
  std::size_t count_ = 0;
  double value_min_ = 0.0;
  double value_max_ = 0.0;
  double target_min_ = 0.0;
  double target_max_ = 0.0;
  double qinv_ = 0.0;  ///< 255 / (value_max_ − value_min_); 0 when constant
};

}  // namespace ef::core
