#include "core/regression.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::core {

double LinearFit::predict(std::span<const double> window) const noexcept {
  // coeffs = (a0 … a_{D-1}, a_D); evaluates even if window is shorter/longer
  // than D-1 entries would require — callers guarantee matching sizes, and
  // the loop bound below keeps the access in range either way.
  const std::size_t d = coeffs.empty() ? 0 : coeffs.size() - 1;
  const std::size_t n = window.size() < d ? window.size() : d;
  double acc = coeffs.empty() ? 0.0 : coeffs.back();
  for (std::size_t i = 0; i < n; ++i) acc += coeffs[i] * window[i];
  return acc;
}

bool solve_spd_inplace(std::vector<double>& a, std::vector<double>& b, std::size_t n) {
  if (a.size() != n * n || b.size() != n) {
    throw std::invalid_argument("solve_spd_inplace: dimension mismatch");
  }
  // In-place Cholesky: A = L·Lᵀ, stored in the lower triangle of `a`.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= a[j * n + k] * a[j * n + k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) v -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = v / ljj;
    }
  }
  // Forward solve L·y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= a[i * n + k] * b[k];
    b[i] = v / a[i * n + i];
  }
  // Back solve Lᵀ·w = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= a[k * n + ii] * b[k];
    b[ii] = v / a[ii * n + ii];
  }
  return true;
}

namespace {

/// Shared core: rows are provided through an accessor returning
/// (pattern span, target) so both public overloads use the same path, and
/// the XᵀX / Xᵀy accumulation is supplied by the caller so the
/// WindowDataset overload can scan lag-major columns instead of rows.
/// Any accumulate implementation must add terms into each accumulator in
/// ascending row order — that keeps every layout bit-identical.
template <typename RowAt, typename Accumulate>
LinearFit fit_impl(std::size_t row_count, std::size_t dim, RowAt&& row_at,
                   Accumulate&& accumulate, const RegressionOptions& options) {
  if (row_count == 0) throw std::invalid_argument("fit_hyperplane: no rows");
  const obs::Span span("core.regression");
  EVOFORECAST_COUNT("regression.fits", 1);
  EVOFORECAST_COUNT("regression.rows", row_count);

  LinearFit fit;
  const std::size_t n = dim + 1;  // + intercept

  const auto constant_fit = [&]() {
    double mean = 0.0;
    for (std::size_t r = 0; r < row_count; ++r) mean += row_at(r).second;
    mean /= static_cast<double>(row_count);
    fit.coeffs.assign(n, 0.0);
    fit.coeffs.back() = mean;
    fit.degenerate = true;
  };

  const bool underdetermined = row_count < dim + 2;
  if (underdetermined && options.constant_fallback_when_underdetermined) {
    constant_fit();
  } else {
    // Normal equations: (XᵀX) w = Xᵀy with X augmented by a ones column.
    std::vector<double> xtx(n * n, 0.0);
    std::vector<double> xty(n, 0.0);
    accumulate(xtx, xty, n);
    // Mirror the upper triangle (we accumulated j >= i only).
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) xtx[i * n + j] = xtx[j * n + i];
    }
    // Relative ridge: λ · tr(XᵀX)/n on the diagonal.
    if (options.ridge > 0.0) {
      double trace = 0.0;
      for (std::size_t i = 0; i < n; ++i) trace += xtx[i * n + i];
      const double bump = options.ridge * trace / static_cast<double>(n);
      for (std::size_t i = 0; i < n; ++i) xtx[i * n + i] += bump;
    }

    std::vector<double> w = xty;
    if (solve_spd_inplace(xtx, w, n)) {
      fit.coeffs = std::move(w);
    } else {
      constant_fit();  // singular even with ridge: constant model
    }
  }

  // Residual statistics on the fitted model.
  double max_resid = 0.0;
  double mean_pred = 0.0;
  for (std::size_t r = 0; r < row_count; ++r) {
    const auto [pattern, y] = row_at(r);
    const double pred = fit.predict(pattern);
    max_resid = std::max(max_resid, std::abs(y - pred));
    mean_pred += pred;
  }
  fit.max_abs_residual = max_resid;
  fit.mean_prediction = mean_pred / static_cast<double>(row_count);
  return fit;
}

/// Row-outer accumulation: the scalar reference used by the generic overload.
template <typename RowAt>
auto make_rowwise_accumulate(std::size_t row_count, std::size_t dim, RowAt& row_at) {
  return [row_count, dim, &row_at](std::vector<double>& xtx, std::vector<double>& xty,
                                   std::size_t n) {
    for (std::size_t r = 0; r < row_count; ++r) {
      const auto [pattern, y] = row_at(r);
      for (std::size_t i = 0; i < dim; ++i) {
        const double xi = pattern[i];
        for (std::size_t j = i; j < dim; ++j) xtx[i * n + j] += xi * pattern[j];
        xtx[i * n + dim] += xi;  // × ones column
        xty[i] += xi * y;
      }
      xtx[dim * n + dim] += 1.0;
      xty[dim] += y;
    }
  };
}

}  // namespace

LinearFit fit_hyperplane(const WindowDataset& data, std::span<const std::size_t> rows,
                         const RegressionOptions& options) {
  const auto row_at = [&](std::size_t r) {
    return std::pair<std::span<const double>, double>{data.pattern(rows[r]),
                                                      data.target(rows[r])};
  };
  // Lag-major accumulation: loop nest interchanged so each (i, j) entry scans
  // two contiguous columns with a gathered row index. Terms still enter every
  // accumulator in ascending row order — the per-entry operation sequence is
  // exactly the row-outer reference's, so the results are bit-identical.
  const LagMajorView cols = data.lag_major();
  const std::span<const double> targets = data.targets();
  const std::size_t dim = data.window();
  const auto accumulate = [&](std::vector<double>& xtx, std::vector<double>& xty, std::size_t n) {
    for (std::size_t i = 0; i < dim; ++i) {
      const double* ci = cols.col(i);
      for (std::size_t j = i; j < dim; ++j) {
        const double* cj = cols.col(j);
        double acc = 0.0;
        for (const std::size_t w : rows) acc += ci[w] * cj[w];
        xtx[i * n + j] = acc;
      }
      double ones = 0.0;
      double xy = 0.0;
      for (const std::size_t w : rows) {
        ones += ci[w];
        xy += ci[w] * targets[w];
      }
      xtx[i * n + dim] = ones;  // × ones column
      xty[i] = xy;
    }
    // Σ 1.0 over the matched rows — exact for any realistic row count.
    xtx[dim * n + dim] = static_cast<double>(rows.size());
    double ty = 0.0;
    for (const std::size_t w : rows) ty += targets[w];
    xty[dim] = ty;
  };
  return fit_impl(rows.size(), dim, row_at, accumulate, options);
}

LinearFit fit_hyperplane(const std::vector<std::vector<double>>& x, std::span<const double> y,
                         const RegressionOptions& options) {
  if (x.size() != y.size()) throw std::invalid_argument("fit_hyperplane: |x| != |y|");
  const std::size_t dim = x.empty() ? 0 : x.front().size();
  for (const auto& row : x) {
    if (row.size() != dim) throw std::invalid_argument("fit_hyperplane: ragged rows");
  }
  const auto row_at = [&](std::size_t r) {
    return std::pair<std::span<const double>, double>{x[r], y[r]};
  };
  return fit_impl(x.size(), dim, row_at, make_rowwise_accumulate(x.size(), dim, row_at), options);
}

}  // namespace ef::core
