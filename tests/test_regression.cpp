// Tests for core/regression.hpp: exact recovery of linear data, residual
// properties, degenerate fallbacks, SPD solver correctness, and bit-identity
// of the dataset overload's packed kernel with the row-wise reference.
#include "core/regression.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "series/timeseries.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::fit_hyperplane;
using ef::core::LinearFit;
using ef::core::RegressionOptions;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

TEST(SolveSpd, Identity) {
  std::vector<double> a{1, 0, 0, 0, 1, 0, 0, 0, 1};
  std::vector<double> b{3, -1, 2};
  ASSERT_TRUE(ef::core::solve_spd_inplace(a, b, 3));
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], -1.0);
  EXPECT_DOUBLE_EQ(b[2], 2.0);
}

TEST(SolveSpd, KnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] → x = [7/4, 3/2].
  std::vector<double> a{4, 2, 2, 3};
  std::vector<double> b{10, 8};
  ASSERT_TRUE(ef::core::solve_spd_inplace(a, b, 2));
  EXPECT_NEAR(b[0], 1.75, 1e-12);
  EXPECT_NEAR(b[1], 1.5, 1e-12);
}

TEST(SolveSpd, SingularReturnsFalse) {
  std::vector<double> a{1, 1, 1, 1};  // rank 1
  std::vector<double> b{2, 2};
  EXPECT_FALSE(ef::core::solve_spd_inplace(a, b, 2));
}

TEST(SolveSpd, NotPositiveDefiniteReturnsFalse) {
  std::vector<double> a{-1, 0, 0, -1};
  std::vector<double> b{1, 1};
  EXPECT_FALSE(ef::core::solve_spd_inplace(a, b, 2));
}

TEST(SolveSpd, DimensionMismatchThrows) {
  std::vector<double> a{1, 0, 0, 1};
  std::vector<double> b{1};
  EXPECT_THROW((void)ef::core::solve_spd_inplace(a, b, 2), std::invalid_argument);
}

TEST(FitHyperplane, RecoversExactAffineRelation) {
  // y = 2x0 − 3x1 + 0.5x2 + 7, noiseless → exact fit and zero residual.
  ef::util::Rng rng(1);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 60; ++i) {
    std::vector<double> row{rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)};
    y.push_back(2.0 * row[0] - 3.0 * row[1] + 0.5 * row[2] + 7.0);
    x.push_back(std::move(row));
  }
  const LinearFit fit = fit_hyperplane(x, y);
  ASSERT_EQ(fit.coeffs.size(), 4u);
  EXPECT_NEAR(fit.coeffs[0], 2.0, 1e-6);
  EXPECT_NEAR(fit.coeffs[1], -3.0, 1e-6);
  EXPECT_NEAR(fit.coeffs[2], 0.5, 1e-6);
  EXPECT_NEAR(fit.coeffs[3], 7.0, 1e-6);
  EXPECT_LT(fit.max_abs_residual, 1e-6);
  EXPECT_FALSE(fit.degenerate);
}

TEST(FitHyperplane, PredictEvaluatesHyperplane) {
  LinearFit fit;
  fit.coeffs = {1.0, 2.0, 10.0};  // y = x0 + 2x1 + 10
  const std::vector<double> w{3.0, 4.0};
  EXPECT_DOUBLE_EQ(fit.predict(w), 21.0);
}

TEST(FitHyperplane, EmptyRowsThrow) {
  const std::vector<std::vector<double>> x;
  const std::vector<double> y;
  EXPECT_THROW((void)fit_hyperplane(x, y), std::invalid_argument);
}

TEST(FitHyperplane, RaggedRowsThrow) {
  const std::vector<std::vector<double>> x{{1.0, 2.0}, {1.0}};
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW((void)fit_hyperplane(x, y), std::invalid_argument);
}

TEST(FitHyperplane, SizeMismatchThrows) {
  const std::vector<std::vector<double>> x{{1.0}};
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW((void)fit_hyperplane(x, y), std::invalid_argument);
}

TEST(FitHyperplane, UnderdeterminedFallsBackToMean) {
  // 3 samples, dim 3 (< dim+2 = 5): constant fallback = mean of targets.
  const std::vector<std::vector<double>> x{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  const std::vector<double> y{3.0, 6.0, 9.0};
  const LinearFit fit = fit_hyperplane(x, y);
  EXPECT_TRUE(fit.degenerate);
  EXPECT_DOUBLE_EQ(fit.coeffs.back(), 6.0);
  EXPECT_DOUBLE_EQ(fit.predict(x[0]), 6.0);
  EXPECT_DOUBLE_EQ(fit.max_abs_residual, 3.0);
}

TEST(FitHyperplane, UnderdeterminedWithFallbackDisabledStillSolves) {
  RegressionOptions opt;
  opt.constant_fallback_when_underdetermined = false;
  const std::vector<std::vector<double>> x{{1, 0}, {0, 1}, {1, 1}};
  const std::vector<double> y{1.0, 2.0, 3.0};
  const LinearFit fit = fit_hyperplane(x, y, opt);
  EXPECT_FALSE(fit.degenerate);
  EXPECT_LT(fit.max_abs_residual, 1e-6);  // exactly interpolable
}

TEST(FitHyperplane, CollinearInputsHandledByRidge) {
  // x1 = 2·x0 exactly: XᵀX singular without ridge; must not blow up.
  ef::util::Rng rng(2);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double v = rng.uniform(-1, 1);
    x.push_back({v, 2.0 * v, rng.uniform(-1, 1), rng.uniform(-1, 1)});
    y.push_back(3.0 * v + x.back()[2]);
  }
  const LinearFit fit = fit_hyperplane(x, y);
  for (const double c : fit.coeffs) EXPECT_TRUE(std::isfinite(c));
  EXPECT_LT(fit.max_abs_residual, 1e-3);
}

TEST(FitHyperplane, ConstantTargetsGiveZeroResidual) {
  ef::util::Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    x.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
    y.push_back(5.5);
  }
  // Tolerance reflects the intentional relative-ridge term (1e-8 of the
  // normal-matrix trace) — not an exact interpolation.
  const LinearFit fit = fit_hyperplane(x, y);
  EXPECT_LT(fit.max_abs_residual, 1e-5);
  EXPECT_NEAR(fit.mean_prediction, 5.5, 1e-5);
}

TEST(FitHyperplane, MaxResidualIsMaxNotMean) {
  // y = x with one outlier: the max |residual| must reflect the outlier.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(static_cast<double>(i));
  }
  y[10] += 8.0;  // outlier
  const LinearFit fit = fit_hyperplane(x, y);
  EXPECT_GT(fit.max_abs_residual, 6.0);  // ~ outlier minus small LS shift
}

/// The generic overload's fit over the same rows of `data`, in the same order.
LinearFit generic_fit(const WindowDataset& data, const std::vector<std::size_t>& rows) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const std::size_t r : rows) {
    const auto p = data.pattern(r);
    x.emplace_back(p.begin(), p.end());
    y.push_back(data.target(r));
  }
  return fit_hyperplane(x, y);
}

void expect_bitwise_equal(const LinearFit& a, const LinearFit& b) {
  ASSERT_EQ(a.coeffs.size(), b.coeffs.size());
  for (std::size_t c = 0; c < a.coeffs.size(); ++c) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.coeffs[c]),
              std::bit_cast<std::uint64_t>(b.coeffs[c]))
        << "coeff " << c << ": " << a.coeffs[c] << " vs " << b.coeffs[c];
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.max_abs_residual),
            std::bit_cast<std::uint64_t>(b.max_abs_residual));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_prediction),
            std::bit_cast<std::uint64_t>(b.mean_prediction));
  EXPECT_EQ(a.degenerate, b.degenerate);
}

TEST(FitHyperplane, DatasetOverloadMatchesGenericOverload) {
  // The dataset overload's packed SIMD kernel must reproduce the generic
  // overload's row-wise reference bit for bit: every D across the vector
  // widths, every row count mod 4 (the unroll depth) and both sides of the
  // 256-row packing block, over sorted, random and unsorted row subsets.
  ef::util::Rng rng(4);
  for (const std::size_t dim : {1, 2, 3, 4, 5, 7, 8, 24, 25, 33}) {
    std::vector<double> series_values;
    for (std::size_t i = 0; i < 900 + dim; ++i) series_values.push_back(rng.uniform(0, 1));
    const TimeSeries s(series_values);
    const WindowDataset data(s, dim, 2);

    std::vector<std::size_t> all(data.count());
    std::iota(all.begin(), all.end(), 0);
    std::vector<std::vector<std::size_t>> subsets{all};
    for (const std::size_t count : {dim + 2, dim + 3, dim + 4, dim + 5, std::size_t{255},
                                    std::size_t{256}, std::size_t{257}, std::size_t{513}}) {
      std::vector<std::size_t> rows = all;
      std::shuffle(rows.begin(), rows.end(), rng);
      rows.resize(count);
      subsets.push_back(rows);  // unsorted
      std::sort(rows.begin(), rows.end());
      subsets.push_back(rows);
    }
    std::vector<std::size_t> hits;
    for (const std::size_t r : all) {
      if (rng.bernoulli(0.3)) hits.push_back(r);
    }
    subsets.push_back(hits);

    for (const auto& rows : subsets) {
      SCOPED_TRACE("dim " + std::to_string(dim) + ", " + std::to_string(rows.size()) +
                   " rows");
      expect_bitwise_equal(fit_hyperplane(data, rows), generic_fit(data, rows));
    }
  }
}

TEST(FitHyperplane, DatasetOverloadRejectsOutOfRangeRow) {
  ef::util::Rng rng(6);
  std::vector<double> series_values;
  for (int i = 0; i < 100; ++i) series_values.push_back(rng.uniform(0, 1));
  const TimeSeries s(series_values);
  const WindowDataset data(s, 3, 1);

  std::vector<std::size_t> rows(data.count());
  std::iota(rows.begin(), rows.end(), 0);
  rows[40] = data.count();  // one past the last window
  EXPECT_THROW((void)fit_hyperplane(data, rows), std::out_of_range);
  // Too few rows to solve: the constant fallback reads the rows too.
  const std::vector<std::size_t> few{0, data.count() + 7};
  EXPECT_THROW((void)fit_hyperplane(data, few), std::out_of_range);
}

// Least-squares property: for the optimal w, residuals are orthogonal to the
// column space — perturbing any coefficient cannot reduce the SSE.
TEST(FitHyperplane, PerturbationIncreasesSse) {
  ef::util::Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({rng.uniform(-2, 2), rng.uniform(-2, 2)});
    y.push_back(x.back()[0] - 0.5 * x.back()[1] + rng.normal(0.0, 0.1));
  }
  RegressionOptions opt;
  opt.ridge = 0.0;  // pure least squares for the optimality property
  const LinearFit fit = fit_hyperplane(x, y, opt);

  const auto sse = [&](const std::vector<double>& coeffs) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      double pred = coeffs.back();
      for (std::size_t j = 0; j < x[i].size(); ++j) pred += coeffs[j] * x[i][j];
      acc += (y[i] - pred) * (y[i] - pred);
    }
    return acc;
  };

  const double base = sse(fit.coeffs);
  for (std::size_t c = 0; c < fit.coeffs.size(); ++c) {
    for (const double eps : {-0.05, 0.05}) {
      auto perturbed = fit.coeffs;
      perturbed[c] += eps;
      EXPECT_GE(sse(perturbed), base - 1e-9);
    }
  }
}

}  // namespace
