// rule_index.hpp — bucketed single-dimension index for fast rule matching.
//
// RuleSystem::predict scans every rule per query: O(R·D). Multi-execution
// unions easily reach R ≈ 500-1000 rules, and production deployments query
// every new sample, so the scan is worth indexing. The observation: a rule
// can only match a window whose value at dimension d lies inside the rule's
// d-th gene. The index picks the most *selective* dimension (smallest mean
// normalised interval width across the rule set, wildcards counting as the
// full range), partitions the value range into B equal buckets and registers
// each rule in the buckets its interval overlaps; a query then inspects only
// bucket(window[d]) — no false negatives by construction, false positives
// filtered by the exact Rule::matches re-check.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/aggregation.hpp"
#include "core/prediction.hpp"
#include "core/rule_system.hpp"

namespace ef::core {

class RuleIndex {
 public:
  /// Build over `system` (which must outlive the index). `value_lo/hi`
  /// bound the expected first-window values (typically the training data's
  /// value range); out-of-range queries fall back to the edge buckets,
  /// which also hold every rule whose interval extends past the range.
  /// Throws std::invalid_argument on hi <= lo or buckets == 0.
  RuleIndex(const RuleSystem& system, double value_lo, double value_hi,
            std::size_t buckets = 64);

  /// Indexed forecast — identical results to system.forecast(window, how):
  /// one candidate scan answers value, fan-in and abstention at once.
  [[nodiscard]] core::Prediction forecast(std::span<const double> window,
                                          Aggregation how = Aggregation::kMean) const;

  /// Indexed vote count — identical to system.vote_count(window).
  [[nodiscard]] std::size_t vote_count(std::span<const double> window) const;

  /// Candidate rules for a value at the indexed dimension (tests/inspection).
  [[nodiscard]] std::span<const std::size_t> candidates(double value_at_dimension) const;

  /// Mean candidate-list length over all buckets (indexing effectiveness;
  /// equals the rule count when every rule is wildcard at the indexed
  /// dimension).
  [[nodiscard]] double mean_candidates() const;

  [[nodiscard]] std::size_t buckets() const noexcept { return bucket_rules_.size(); }
  /// The dimension the index chose (most selective across the rule set).
  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

 private:
  [[nodiscard]] std::size_t bucket_of(double value) const;

  const RuleSystem& system_;
  double lo_;
  double width_;  // per-bucket width
  std::size_t dimension_ = 0;
  std::vector<std::vector<std::size_t>> bucket_rules_;
};

}  // namespace ef::core
