// bench_common.hpp — shared plumbing for the table/figure reproduction
// benches: train-and-evaluate wrapper for the rule system, baseline runners,
// fixed-width table printing, and a tiny ASCII plotter for figure benches.
//
// Every bench accepts --full to switch from the scaled-down default to the
// paper-scale configuration, and --seed / --generations / … overrides so a
// sweep script can tune without recompiling.
#pragma once

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baselines/forecaster.hpp"
#include "core/rule_system.hpp"
#include "obs/run_report.hpp"
#include "series/metrics.hpp"

namespace ef::bench {

/// Targets of a dataset as a flat vector (metrics take spans).
[[nodiscard]] inline std::vector<double> targets_of(const core::WindowDataset& data) {
  std::vector<double> out;
  out.reserve(data.count());
  for (std::size_t i = 0; i < data.count(); ++i) out.push_back(data.target(i));
  return out;
}

/// Wall-clock seconds since `start`.
[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Outcome of one rule-system experiment on one horizon.
struct RuleSystemOutcome {
  series::CoverageReport report;  ///< coverage % + errors over covered subset
  std::size_t rules = 0;
  std::size_t executions = 0;
  double train_seconds = 0.0;
  core::RuleSystem system;
  series::PartialForecast forecast;
};

/// Train the rule system on `train` and evaluate on `validation`.
[[nodiscard]] inline RuleSystemOutcome run_rule_system(const core::WindowDataset& train,
                                                       const core::WindowDataset& validation,
                                                       const core::RuleSystemConfig& config) {
  RuleSystemOutcome out;
  const auto start = std::chrono::steady_clock::now();
  // Sequential schedule: train_seconds must stay comparable across runs and
  // with the committed baselines, so the schedule is pinned rather than kAuto.
  auto result = core::train(train, {.config = config,
                                    .parallelism = core::TrainParallelism::kSequential});
  out.train_seconds = seconds_since(start);
  out.rules = result.system.size();
  out.executions = result.executions;
  out.forecast = result.system.forecast_dataset(validation);
  out.report = series::evaluate_partial(targets_of(validation), out.forecast);
  out.system = std::move(result.system);
  return out;
}

/// Outcome of one baseline on one horizon (always full coverage).
struct BaselineOutcome {
  double rmse = 0.0;
  double mse = 0.0;
  double nmse = 0.0;
  double train_seconds = 0.0;
};

[[nodiscard]] inline BaselineOutcome run_baseline(baselines::Forecaster& model,
                                                  const core::WindowDataset& train,
                                                  const core::WindowDataset& validation) {
  BaselineOutcome out;
  const auto start = std::chrono::steady_clock::now();
  model.fit(train);
  out.train_seconds = seconds_since(start);
  const auto predictions = model.predict_all(validation);
  const auto actual = targets_of(validation);
  out.rmse = series::rmse(actual, predictions);
  out.mse = series::mse(actual, predictions);
  out.nmse = series::nmse(actual, predictions);
  return out;
}

/// Galván-Isasi error (Table 3 metric) for a full-coverage prediction.
[[nodiscard]] inline double galvan_of(const std::vector<double>& actual,
                                      const std::vector<double>& predicted,
                                      std::size_t horizon) {
  return series::galvan_error(actual, predicted, horizon);
}

/// Galván error over the covered subset of a partial forecast.
[[nodiscard]] inline double galvan_partial(const std::vector<double>& actual,
                                           const series::PartialForecast& forecast,
                                           std::size_t horizon) {
  return series::galvan_error_partial(actual, forecast, horizon);
}

/// Parse a comma-separated list of sizes ("1,4,24"); empty/absent → empty
/// vector (callers treat that as "all").
[[nodiscard]] inline std::vector<std::size_t> parse_size_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!token.empty()) out.push_back(static_cast<std::size_t>(std::stoul(token)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// True when `value` is in `filter`, or the filter is empty (= "all").
[[nodiscard]] inline bool selected(const std::vector<std::size_t>& filter,
                                   std::size_t value) {
  if (filter.empty()) return true;
  for (const std::size_t v : filter) {
    if (v == value) return true;
  }
  return false;
}

/// printf-style row formatting keeps the bench output aligned and grep-able.
inline void print_rule(char fill = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(fill);
  std::putchar('\n');
}

/// Render a set of series as a crude ASCII chart (for figure benches).
/// Each series is one glyph; overlapping points show the later series.
inline void ascii_plot(const std::vector<std::pair<char, std::vector<double>>>& curves,
                       int rows = 20) {
  if (curves.empty() || curves.front().second.empty()) return;
  double lo = curves.front().second.front();
  double hi = lo;
  std::size_t width = 0;
  for (const auto& [glyph, ys] : curves) {
    width = std::max(width, ys.size());
    for (const double y : ys) {
      lo = std::min(lo, y);
      hi = std::max(hi, y);
    }
  }
  if (hi == lo) hi = lo + 1.0;

  std::vector<std::string> canvas(static_cast<std::size_t>(rows), std::string(width, ' '));
  for (const auto& [glyph, ys] : curves) {
    for (std::size_t x = 0; x < ys.size(); ++x) {
      const double t = (ys[x] - lo) / (hi - lo);
      const int row = rows - 1 - static_cast<int>(t * (rows - 1) + 0.5);
      canvas[static_cast<std::size_t>(row)][x] = glyph;
    }
  }
  std::printf("%8.1f +%s\n", hi, std::string(width, '-').c_str());
  for (const auto& line : canvas) std::printf("         |%s\n", line.c_str());
  std::printf("%8.1f +%s\n", lo, std::string(width, '-').c_str());
}

}  // namespace ef::bench
