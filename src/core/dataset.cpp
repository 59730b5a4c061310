#include "core/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ef::core {

WindowDataset::WindowDataset(const series::TimeSeries& s, std::size_t window,
                             std::size_t horizon, std::size_t stride)
    : values_(s.values().begin(), s.values().end()),
      window_(window),
      horizon_(horizon),
      stride_(stride) {
  if (window == 0) throw std::invalid_argument("WindowDataset: window must be > 0");
  if (stride == 0) throw std::invalid_argument("WindowDataset: stride must be > 0");
  const std::size_t reach = (window - 1) * stride + horizon;  // last index offset
  if (s.size() < reach + 1) {
    throw std::invalid_argument("WindowDataset: series of size " + std::to_string(s.size()) +
                                " too short for window " + std::to_string(window) +
                                ", stride " + std::to_string(stride) + " and horizon " +
                                std::to_string(horizon));
  }
  count_ = s.size() - reach;

  patterns_.resize(count_ * window_);
  targets_.resize(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    for (std::size_t j = 0; j < window_; ++j) {
      patterns_[i * window_ + j] = values_[i + j * stride_];
    }
    targets_[i] = values_[i + reach];
  }

  value_min_ = *std::min_element(values_.begin(), values_.end());
  value_max_ = *std::max_element(values_.begin(), values_.end());
  target_min_ = *std::min_element(targets_.begin(), targets_.end());
  target_max_ = *std::max_element(targets_.begin(), targets_.end());

  // Quantized mirror for the prefilter kernel: a monotone map of the value
  // range onto [0, 255]. The kernel relaxes gene bounds through the same
  // map, so the byte scan can only over-accept — never drop — a window, and
  // its survivors are re-verified in double precision.
  qinv_ = value_max_ > value_min_ ? 255.0 / (value_max_ - value_min_) : 0.0;
  lag_major_q_.resize(count_ * window_);
  for (std::size_t i = 0; i < count_; ++i) {
    for (std::size_t j = 0; j < window_; ++j) {
      lag_major_q_[j * count_ + i] =
          quantize_value(patterns_[i * window_ + j], value_min_, qinv_);
    }
  }
  // Row-major quantized mirror for the rule-major batched kernel, which
  // streams one window's bytes against the byte planes of the whole rule set.
  patterns_q_.resize(count_ * window_);
  for (std::size_t k = 0; k < patterns_.size(); ++k) {
    patterns_q_[k] = quantize_value(patterns_[k], value_min_, qinv_);
  }
}

}  // namespace ef::core
