// fitness.hpp — rule evaluation: match → regress → score (paper §3.1).
//
//   IF (N_R > 1 AND e_R < EMAX) THEN fitness = N_R·EMAX − e_R ELSE f_min
//
// The evaluator owns the full pipeline for one rule: find the matched
// window set C_R(S) with the match engine, fit the predicting hyperplane on
// it, take e_R = max |residual|, and score. Populations are evaluated in a
// batch loop so the (parallel) match engine stays saturated.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/match_engine.hpp"
#include "core/rule.hpp"

namespace ef::core {

/// Pure fitness formula, exposed separately for property tests.
[[nodiscard]] constexpr double fitness_value(std::size_t matches, double error, double emax,
                                             double f_min) noexcept {
  if (matches > 1 && error < emax) {
    return static_cast<double>(matches) * emax - error;
  }
  return f_min;
}

class Evaluator {
 public:
  /// `engine` must outlive the evaluator.
  Evaluator(const MatchEngine& engine, const EvolutionConfig& config,
            RegressionOptions regression = {});

  /// Evaluate one rule in place: sets its PredictingPart (fit, N_R, fitness).
  /// When `keep_matches` is non-null the matched index set is copied out
  /// (needed by the Jaccard crowding metric).
  void evaluate(Rule& rule, std::vector<std::size_t>* keep_matches = nullptr) const;

  /// Evaluate every rule of a population in place. The whole batch is
  /// matched in one window pass (MatchEngine::match_all) and the
  /// regress-and-score tail fans out across the engine's pool; results are
  /// bit-identical to calling evaluate() per rule. When `keep_matches` is
  /// non-null it receives one matched index set per rule (same order as
  /// `population`).
  void evaluate_all(std::span<Rule> population,
                    std::vector<std::vector<std::size_t>>* keep_matches = nullptr) const;

  [[nodiscard]] const MatchEngine& engine() const noexcept { return engine_; }
  [[nodiscard]] const EvolutionConfig& config() const noexcept { return config_; }

 private:
  const MatchEngine& engine_;
  const EvolutionConfig& config_;
  RegressionOptions regression_;
};

}  // namespace ef::core
