// prediction.hpp — the value type every forecast entry point returns.
//
// A Michigan rule system can legitimately decline to answer: a window matched
// by no rule is an *abstention* (the flip side of the paper's coverage
// metric), and downstream layers care how many rules voted (fan-in drives
// the serve layer's uncertainty heuristics and the ablation benches). This
// struct carries all three facts at once so callers stop re-deriving them —
// previously abstention travelled as std::optional, votes as an out-param,
// and the pair was re-assembled in at least four places.
#pragma once

#include <cstddef>
#include <optional>

namespace ef::core {

/// One forecast: the aggregated value, how many rules voted, and whether the
/// system abstained (no rule matched — `value` is meaningless then).
struct Prediction {
  double value = 0.0;
  std::size_t votes = 0;
  bool abstained = true;
  /// Interval half-width from the voters' training errors:
  ///   bound = max_k ( e_k + |v_k − value| )
  /// so [value − bound, value + bound] is the paper's prediction interval
  /// (exact in-sample, an empirically calibrated heuristic held-out: ≥ ~85 %
  /// containment on Mackey-Glass). Negative = no bound available (an
  /// abstention, or a path that cannot compose one, e.g. iterated
  /// multi-step chains).
  double bound = -1.0;

  /// True when at least one rule matched (the forecast is usable).
  [[nodiscard]] bool matched() const noexcept { return !abstained; }

  /// The pre-redesign shape, for callers that want optional semantics.
  [[nodiscard]] std::optional<double> as_optional() const noexcept {
    if (abstained) return std::nullopt;
    return value;
  }
};

}  // namespace ef::core
