// rule.hpp — a prediction rule: the individual of the Michigan population.
//
// Paper §3.1: a rule R = (C_R, P_R) where the conditional part C_R is D
// interval genes and the predicting part P_R = (p_R, e_R) is *derived* from
// the training data (linear regression over matched windows), never evolved
// directly. The flat encoding
//   (LL_1, UL_1, …, LL_D, UL_D, p, e)
// with '*' for wildcards is reproduced by encode()/parse() for
// serialisation and debuggability.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/interval.hpp"
#include "core/regression.hpp"

namespace ef::core {

/// Derived predicting part of a rule (paper's (p, e) plus the fitted
/// hyperplane and bookkeeping used by fitness and crowding).
struct PredictingPart {
  LinearFit fit;            ///< hyperplane; fit.max_abs_residual is e_R
  std::size_t matches = 0;  ///< N_R: matched training windows
  double fitness = 0.0;     ///< cached fitness value

  /// Paper's scalar prediction value p_R (mean regression output over the
  /// matched set) — the phenotype coordinate used by crowding replacement.
  [[nodiscard]] double prediction() const noexcept { return fit.mean_prediction; }
  /// Paper's expected error e_R.
  [[nodiscard]] double error() const noexcept { return fit.max_abs_residual; }
};

/// One rule. Invariant: genes().size() == D of the dataset it is evaluated
/// against; the predicting part is present only after evaluation. Matching
/// is asked of the kernels (MatchEngine, RuleSystem::voters).
class Rule {
 public:
  Rule() = default;
  explicit Rule(std::vector<Interval> genes) : genes_(std::move(genes)) {}

  [[nodiscard]] std::size_t window() const noexcept { return genes_.size(); }
  [[nodiscard]] const std::vector<Interval>& genes() const noexcept { return genes_; }
  [[nodiscard]] std::vector<Interval>& genes() noexcept { return genes_; }

  /// Predicting part; empty until the rule has been evaluated.
  [[nodiscard]] const std::optional<PredictingPart>& predicting() const noexcept {
    return predicting_;
  }
  void set_predicting(PredictingPart part) { predicting_ = std::move(part); }
  void clear_predicting() noexcept { predicting_.reset(); }

  /// Cached fitness; rules not yet evaluated report -infinity so they always
  /// lose comparisons (and are visibly wrong in traces).
  [[nodiscard]] double fitness() const noexcept;

  /// Forecast for a matching window: the fitted hyperplane evaluated at it.
  /// Precondition: predicting part present (throws std::logic_error if not).
  [[nodiscard]] double forecast(std::span<const double> window_values) const;

  /// Number of non-wildcard genes (specificity; used in telemetry).
  [[nodiscard]] std::size_t specificity() const noexcept;

  /// Paper-style flat encoding, e.g. "(50, 100, *, *, 1, 100 | p=33, e=5)".
  [[nodiscard]] std::string encode() const;

  /// Parse the conditional part of an encode()d string back into a rule
  /// (the derived predicting part is *not* restored — re-evaluate instead).
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static Rule parse(const std::string& text);

 private:
  std::vector<Interval> genes_;
  std::optional<PredictingPart> predicting_;
};

}  // namespace ef::core
