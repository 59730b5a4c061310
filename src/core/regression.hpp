// regression.hpp — least-squares hyperplane fit for a rule's predicting part.
//
// Paper §3.1: the prediction of a rule is the hyperplane
//   ṽ = a0·x_i + a1·x_{i+1} + … + a_{D-1}·x_{i+D-1} + a_D
// fitted over all training windows the rule matches; the rule's error e is
// the maximum absolute residual of that fit. We solve the normal equations
// with a Cholesky factorisation; a tiny ridge term keeps the system
// well-posed when matched windows are collinear (common for very specific
// rules that match a handful of near-identical windows), and the constant
// (mean) fit serves as the final fallback.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/dataset.hpp"

namespace ef::core {

/// Fitted affine model over D inputs: coeffs has D+1 entries, the last one
/// the intercept a_D.
struct LinearFit {
  std::vector<double> coeffs;
  double max_abs_residual = 0.0;  ///< the paper's rule error e_R
  double mean_prediction = 0.0;   ///< mean of fitted values (phenotype summary)
  bool degenerate = false;        ///< true when the constant fallback was used

  /// Evaluate the hyperplane on a window of D values.
  [[nodiscard]] double predict(std::span<const double> window) const noexcept;
};

/// Options for the solver.
struct RegressionOptions {
  /// Ridge weight λ added to the normal-matrix diagonal (relative to its
  /// trace). 0 disables regularisation.
  double ridge = 1e-8;
  /// Fall back to the constant (mean) model when fewer than D+2 samples are
  /// available — fewer samples than unknowns always interpolates, which
  /// makes e_R = 0 and lets trivially-specific rules look perfect.
  bool constant_fallback_when_underdetermined = true;
};

/// Fit the hyperplane over the subset `rows` of `data`'s patterns, in any
/// order. Bit-identical to the generic overload below over the same rows in
/// the same order, on every SIMD width. Throws std::invalid_argument when
/// rows is empty and std::out_of_range when an index is not below
/// data.count().
[[nodiscard]] LinearFit fit_hyperplane(const WindowDataset& data,
                                       std::span<const std::size_t> rows,
                                       const RegressionOptions& options = {});

/// Generic interface (used by tests and the baselines): fit over explicit
/// row vectors. Each row of `x` must have the same length; `y.size()` must
/// equal `x.size()`.
[[nodiscard]] LinearFit fit_hyperplane(const std::vector<std::vector<double>>& x,
                                       std::span<const double> y,
                                       const RegressionOptions& options = {});

/// Solve the symmetric positive-definite system A·w = b in place via
/// Cholesky; returns false when A is not (numerically) SPD. Exposed for the
/// baselines' use and for direct unit testing. `a` is row-major n×n.
[[nodiscard]] bool solve_spd_inplace(std::vector<double>& a, std::vector<double>& b,
                                     std::size_t n);

}  // namespace ef::core
