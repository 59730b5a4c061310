// config.hpp — all tunables of the evolutionary rule system in one place.
//
// Defaults follow the paper where it states values (population 100,
// 3-round tournament, D = 24 for the natural series) and sensible choices
// where it does not (mutation rates, EMAX per experiment — see DESIGN.md §5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/match_backend.hpp"

namespace ef::core {

/// Phenotypic distance used by crowding replacement (DESIGN.md §5.2).
enum class DistanceMetric {
  kPrediction,       ///< |p_A − p_B| on the scalar prediction value (default)
  kConditionOverlap, ///< 1 − mean per-gene overlap fraction of the condition boxes
  kMatchedJaccard,   ///< 1 − Jaccard similarity of matched training-window sets
};

[[nodiscard]] constexpr const char* to_string(DistanceMetric m) noexcept {
  switch (m) {
    case DistanceMetric::kPrediction: return "prediction";
    case DistanceMetric::kConditionOverlap: return "condition_overlap";
    case DistanceMetric::kMatchedJaccard: return "matched_jaccard";
  }
  return "?";
}

/// Population initialisation strategy (Ablation A).
enum class InitStrategy {
  kOutputStratified,  ///< paper §3.2: one rule per output sub-interval
  kUniformRandom,     ///< random boxes over the input range (baseline for ablation)
};

/// Replacement strategy (Ablation B).
enum class ReplacementStrategy {
  kCrowding,      ///< paper §3.3: replace phenotypically-nearest if fitter
  kReplaceWorst,  ///< replace the least-fit individual if fitter
  kRandom,        ///< replace a random individual if fitter
};

/// Parameters of one evolutionary execution.
struct EvolutionConfig {
  std::size_t population_size = 100;
  std::size_t generations = 5000;

  /// Fitness: fitness = N_R·EMAX − e_R when N_R > 1 and e_R < EMAX,
  /// else f_min. EMAX is in target units (cm for Venice, [0,1] elsewhere).
  double emax = 0.1;
  double f_min = -1.0;

  /// Tournament rounds (paper: "three rounds trials").
  std::size_t tournament_rounds = 3;

  /// Per-gene mutation probability and relative step (fraction of the
  /// variable's full range used to size enlarge/shrink/shift steps).
  double mutation_prob = 0.15;
  double mutation_scale = 0.1;
  /// Probability that a mutation event turns the gene into a wildcard /
  /// re-materialises a wildcard into a concrete interval.
  double wildcard_toggle_prob = 0.05;

  DistanceMetric distance = DistanceMetric::kPrediction;
  InitStrategy init = InitStrategy::kOutputStratified;
  ReplacementStrategy replacement = ReplacementStrategy::kCrowding;

  /// Match path used by rule evaluation. kAuto is its one value: the
  /// match kernels, whose SIMD width cpuid picks.
  MatchBackend match_backend = MatchBackend::kAuto;

  std::uint64_t seed = 1;

  /// Emit a telemetry record every this many generations (0 = off).
  std::size_t telemetry_stride = 0;

  /// Validate invariants; throws std::invalid_argument with the offending
  /// field name. Call before running — configs travel through CLI parsing.
  void validate() const {
    const auto fail = [](const std::string& what) {
      throw std::invalid_argument("EvolutionConfig: " + what);
    };
    if (population_size < 2) fail("population_size must be >= 2");
    if (emax <= 0.0) fail("emax must be > 0");
    if (tournament_rounds == 0) fail("tournament_rounds must be >= 1");
    if (mutation_prob < 0.0 || mutation_prob > 1.0) fail("mutation_prob out of [0,1]");
    if (mutation_scale <= 0.0) fail("mutation_scale must be > 0");
    if (wildcard_toggle_prob < 0.0 || wildcard_toggle_prob > 1.0) {
      fail("wildcard_toggle_prob out of [0,1]");
    }
  }
};

/// Parameters of the multi-execution outer loop (paper §3.4).
struct RuleSystemConfig {
  EvolutionConfig evolution;

  /// Stop re-running once training coverage reaches this percentage…
  double coverage_target_percent = 97.0;
  /// …or after this many executions, whichever comes first.
  std::size_t max_executions = 5;

  /// Drop rules whose fitness is f_min (never matched / error ≥ EMAX) before
  /// adding a population to the final system.
  bool discard_unfit = true;

  void validate() const {
    evolution.validate();
    if (coverage_target_percent < 0.0 || coverage_target_percent > 100.0) {
      throw std::invalid_argument("RuleSystemConfig: coverage_target_percent out of [0,100]");
    }
    if (max_executions == 0) {
      throw std::invalid_argument("RuleSystemConfig: max_executions must be >= 1");
    }
  }
};

}  // namespace ef::core
