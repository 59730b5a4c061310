#include "core/regression.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

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
/// WindowDataset overload can run the packed SIMD kernel instead of the
/// row-wise reference. Any accumulate implementation must add terms into
/// each accumulator in row order, starting from zero — that keeps every
/// kernel bit-identical.
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

// Packed kernel. Each matched row is packed as p = (x_0 … x_{D−1}, 1, y),
// zero-padded to a multiple of the vector width, and one rank-1 update
// A[i][j] += p_i · p_j (i ≤ D, j ≥ i) then yields the XᵀX upper triangle
// (j < D), its ones column (j = D: x_i·1.0 is exact, and Σ 1.0 is the row
// count) and Xᵀy (j = D+1: 1.0·y is exact). Every entry still adds one
// product per row in `rows` order, a multiply followed by an add, so the
// result is bit-identical to the row-wise reference. No target below enables
// FMA, so nothing contracts the multiply into the add.

/// Rows packed per block: bounds the scratch to 256 rows however many a rule
/// matches.
constexpr std::size_t kPackBlock = 256;

typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));
typedef double Lanes4 __attribute__((vector_size(4 * sizeof(double))));

/// Add the products of R consecutive packed rows to the accumulator rows
/// 0…dim. Each accumulator vector is loaded and stored once per R rows; the
/// columns left of the diagonal and the padding also accumulate, unread.
template <typename V, std::size_t R>
[[gnu::always_inline]] inline void rank_update(const double* rows, std::size_t stride,
                                               std::size_t dim, double* acc) {
  constexpr std::size_t kWidth = sizeof(V) / sizeof(double);
  for (std::size_t i = 0; i <= dim; ++i) {
    double xi[R];
    for (std::size_t k = 0; k < R; ++k) xi[k] = rows[k * stride + i];
    double* a = acc + i * stride;
    for (std::size_t c = i / kWidth * kWidth; c < stride; c += kWidth) {
      V v;
      std::memcpy(&v, a + c, sizeof v);
      for (std::size_t k = 0; k < R; ++k) {
        V x;
        std::memcpy(&x, rows + k * stride + c, sizeof x);
        v = v + xi[k] * x;
      }
      std::memcpy(a + c, &v, sizeof v);
    }
  }
}

/// One packed block: four rows per accumulator pass, then the remainder.
template <typename V>
[[gnu::always_inline]] inline void rank_update_block(const double* rows, std::size_t count,
                                                     std::size_t stride, std::size_t dim,
                                                     double* acc) {
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) rank_update<V, 4>(rows + r * stride, stride, dim, acc);
  for (; r < count; ++r) rank_update<V, 1>(rows + r * stride, stride, dim, acc);
}

/// Two lanes: SSE2 on x86-64, the compiler's generic vectors elsewhere.
void rank_update_2(const double* rows, std::size_t count, std::size_t stride, std::size_t dim,
                   double* acc) {
  rank_update_block<Lanes2>(rows, count, stride, dim, acc);
}

#if defined(__x86_64__) || defined(__i386__)
/// Four lanes (AVX2; requires cpu_supports_avx2()).
__attribute__((target("avx2"))) void rank_update_4(const double* rows, std::size_t count,
                                                   std::size_t stride, std::size_t dim,
                                                   double* acc) {
  rank_update_block<Lanes4>(rows, count, stride, dim, acc);
}
#endif

/// The dataset overload's bounds check on a caller-supplied row index.
std::size_t checked_row(const WindowDataset& data, std::size_t w) {
  if (w >= data.count()) {
    throw std::out_of_range("fit_hyperplane: row " + std::to_string(w) + " out of range for " +
                            std::to_string(data.count()) + " windows");
  }
  return w;
}

/// Per-thread packing scratch, grown on demand and reused by every later fit.
struct PackScratch {
  std::vector<double> rows;  ///< kPackBlock packed rows of `stride` doubles
  std::vector<double> acc;   ///< dim+1 accumulator rows of `stride` doubles
};

/// Accumulate XᵀX (upper triangle and ones column) and Xᵀy over `rows` of
/// `data` with the packed kernel. Throws std::out_of_range on a row index
/// past the dataset.
void packed_accumulate(const WindowDataset& data, std::span<const std::size_t> rows,
                       std::vector<double>& xtx, std::vector<double>& xty, std::size_t n) {
  auto* update = rank_update_2;
  std::size_t width = 2;
#if defined(__x86_64__) || defined(__i386__)
  if (cpu_supports_avx2()) {
    update = rank_update_4;
    width = 4;
  }
#endif
  const std::size_t dim = data.window();
  const std::size_t stride = (dim + 2 + width - 1) / width * width;
  thread_local PackScratch scratch;
  scratch.rows.resize(kPackBlock * stride);
  scratch.acc.assign(n * stride, 0.0);
  for (std::size_t b = 0; b < rows.size(); b += kPackBlock) {
    const std::size_t count = std::min(kPackBlock, rows.size() - b);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t w = checked_row(data, rows[b + k]);
      double* p = scratch.rows.data() + k * stride;
      const std::span<const double> x = data.pattern(w);
      std::copy(x.begin(), x.end(), p);
      p[dim] = 1.0;
      p[dim + 1] = data.target(w);
      std::fill(p + dim + 2, p + stride, 0.0);
    }
    update(scratch.rows.data(), count, stride, dim, scratch.acc.data());
  }
  const double* acc = scratch.acc.data();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) xtx[i * n + j] = acc[i * stride + j];
    xty[i] = acc[i * stride + dim + 1];
  }
}

}  // namespace

LinearFit fit_hyperplane(const WindowDataset& data, std::span<const std::size_t> rows,
                         const RegressionOptions& options) {
  const auto row_at = [&](std::size_t r) {
    const std::size_t w = checked_row(data, rows[r]);
    return std::pair<std::span<const double>, double>{data.pattern(w), data.target(w)};
  };
  const auto accumulate = [&](std::vector<double>& xtx, std::vector<double>& xty, std::size_t n) {
    packed_accumulate(data, rows, xtx, xty, n);
  };
  return fit_impl(rows.size(), data.window(), row_at, accumulate, options);
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
