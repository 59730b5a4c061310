// paper_oracle.hpp — a deliberately naive transcription of the paper's
// algorithm (Luque, Valls, Isasi — IPPS 2007, §3), used only by tests as the
// reference for the optimized library.
//
// Everything here is written out in the plainest form that reproduces the
// library's results bit for bit: windows are built from the raw series, a
// rule matches by a scalar scan over its genes, the hyperplane comes from
// the normal equations summed row by row and solved by Cholesky, fitness is
// N_R·EMAX − e_R, parents come from a 3-round tournament, the offspring
// replaces its nearest neighbour in prediction space only if fitter, and
// executions are unioned until the coverage target is met. Forecasts are the
// mean vote of the matching rules, and `voters` lists which rules those are
// for one window.
//
// The oracle shares no code with src/core. It uses core::Rule, core::Interval
// and core::PredictingPart (with its LinearFit) as plain data types only —
// their constructors and accessors, never their behaviour — so the
// differential tests can build a RuleSystem from its rules and compare the
// saved text. Random draws come from util::Rng in the library's order; that
// order is part of the specification the oracle pins down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/interval.hpp"
#include "core/rule.hpp"

namespace ef::oracle {

/// The paper's parameters, spelled out here rather than taken from
/// core::RuleSystemConfig. Only the paper's configuration is transcribed:
/// output-stratified initialisation, crowding on the prediction value.
struct Config {
  std::size_t population_size = 100;
  std::size_t generations = 5000;
  double emax = 0.1;
  double f_min = -1.0;
  std::size_t tournament_rounds = 3;
  double mutation_prob = 0.15;
  double mutation_scale = 0.1;
  double wildcard_toggle_prob = 0.05;
  std::uint64_t seed = 1;
  double coverage_target_percent = 97.0;
  std::size_t max_executions = 5;
  bool discard_unfit = true;
};

/// Sliding windows of a raw series: x[i] = (v_i, v_{i+s}, …, v_{i+(D−1)s}),
/// y[i] = v_{i+(D−1)s+τ}.
struct Windows {
  std::size_t d = 0;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  double value_min = 0.0;   ///< over the whole series
  double value_max = 0.0;
  double target_min = 0.0;  ///< over y
  double target_max = 0.0;
};

/// Build the windows of `series` for D lags, horizon τ and stride s. Throws
/// std::invalid_argument when the series holds no complete window.
[[nodiscard]] Windows make_windows(std::span<const double> series, std::size_t d,
                                   std::size_t horizon, std::size_t stride = 1);

/// Ascending indices of the windows the genes match. A bounded gene holds
/// a value v when lo <= v <= hi (so it rejects NaN); a wildcard holds
/// anything. Genes of another length than the windows match nothing.
[[nodiscard]] std::vector<std::size_t> match(std::span<const core::Interval> genes,
                                             const Windows& w);

/// The same scan over `count` row-major windows of `window` values each.
[[nodiscard]] std::vector<std::size_t> match_rows(std::span<const core::Interval> genes,
                                                  const double* rows, std::size_t count,
                                                  std::size_t window);

/// Ascending indices of the rules that vote on one window: those with a
/// predicting part whose genes match it.
[[nodiscard]] std::vector<std::size_t> voters(std::span<const core::Rule> rules,
                                              std::span<const double> window);

/// Evaluate a rule: match, fit, score. Sets its predicting part.
void evaluate(core::Rule& rule, const Windows& w, const Config& config);

/// The outcome of the multi-execution loop.
struct Result {
  std::vector<core::Rule> rules;  ///< the union, in the order rules were added
  std::size_t executions = 0;     ///< executions unioned
  std::vector<double> coverage_per_execution;
};

/// Train: evolve execution after execution (execution 0 with config.seed,
/// later ones with seeds drawn from an Rng seeded with it) and union each
/// final population until the coverage target or max_executions is reached.
[[nodiscard]] Result train(const Windows& w, const Config& config);

/// Mean vote of the matching rules per window; nullopt where none matches.
[[nodiscard]] std::vector<std::optional<double>> forecast(const std::vector<core::Rule>& rules,
                                                          const Windows& w);

}  // namespace ef::oracle
