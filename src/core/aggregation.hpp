// aggregation.hpp — query-time combination of matching rules' outputs.
//
// Paper §3.4 averages the outputs of every matching rule. That is one point
// in a design space this module makes explicit (and Ablation D benches):
//   * kMean            — the paper's choice; robust, no extra state
//   * kFitnessWeighted — rules that matched more training windows with less
//                        error carry more weight (weight = max(fitness, 0))
//   * kMedian          — order statistic; robust to one bad specialist
//   * kBestRule        — winner-takes-all by fitness (classic classifier-
//                        system "action selection")
//   * kInverseError    — weight = 1/(e_R + ε); trusts tight rules most
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/rule.hpp"

namespace ef::core {

enum class Aggregation {
  kMean,
  kFitnessWeighted,
  kMedian,
  kBestRule,
  kInverseError,
};

[[nodiscard]] constexpr const char* to_string(Aggregation a) noexcept {
  switch (a) {
    case Aggregation::kMean: return "mean";
    case Aggregation::kFitnessWeighted: return "fitness_weighted";
    case Aggregation::kMedian: return "median";
    case Aggregation::kBestRule: return "best_rule";
    case Aggregation::kInverseError: return "inverse_error";
  }
  return "?";
}

/// One matching rule's contribution to a forecast.
struct Vote {
  double value = 0.0;    ///< hyperplane output for this window
  double fitness = 0.0;  ///< rule fitness (may be f_min / negative)
  double error = 0.0;    ///< rule e_R
};

/// Combine votes under the given strategy. Returns nullopt on an empty vote
/// set (abstention). Exposed separately from RuleSystem so it can be
/// property-tested in isolation.
[[nodiscard]] std::optional<double> aggregate_votes(std::vector<Vote> votes, Aggregation how);

/// Interval half-width of an aggregated forecast: max over voters of
/// e_R + |v_R − value|. Every voter guaranteed |target − v_R| ≤ e_R on its
/// training region, so [value − bound, value + bound] contains the target
/// whenever any voter's guarantee holds. Returns 0 on an empty vote set
/// (callers gate on abstention first).
[[nodiscard]] double vote_bound(std::span<const Vote> votes, double value);

/// A predicting rule's vote on a window it matches: its hyperplane output,
/// fitness and e_R. Every forecast path builds its votes through this.
[[nodiscard]] Vote vote_of(const Rule& rule, std::span<const double> window);

}  // namespace ef::core
