#include "core/backtest.hpp"

#include <cmath>
#include <stdexcept>

#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::core {

BacktestResult backtest_rule_system(const series::TimeSeries& series,
                                    const RuleSystemConfig& config,
                                    const BacktestOptions& options,
                                    util::ThreadPool* pool) {
  const obs::Span span("core.backtest");
  const std::size_t reach = (options.window - 1) * options.stride + options.horizon;
  const std::size_t min_train = reach + 2;  // at least two training windows

  std::size_t initial_train =
      options.initial_train ? options.initial_train : series.size() / 2;
  if (initial_train < min_train) initial_train = min_train;

  std::size_t fold_size = options.fold_size;
  if (fold_size == 0) {
    const std::size_t remaining =
        series.size() > initial_train ? series.size() - initial_train : 0;
    fold_size = remaining / 4;
  }
  if (fold_size == 0 || initial_train + fold_size > series.size()) {
    throw std::invalid_argument("backtest_rule_system: series too short for one fold");
  }

  BacktestResult result;
  double coverage_sum = 0.0;
  double sq_err_sum = 0.0;
  double abs_err_sum = 0.0;
  std::size_t covered_total = 0;

  for (std::size_t origin = initial_train;
       origin + reach < series.size() && result.folds.size() < options.max_folds;
       origin += fold_size) {
    const obs::Span fold_span("core.backtest.fold");
    const std::size_t train_begin =
        options.rolling && origin > initial_train ? origin - initial_train : 0;
    const series::TimeSeries train_slice = series.slice(train_begin, origin);
    // The evaluation slice needs `reach` samples of history to form its
    // first window ending at `origin`.
    const std::size_t eval_begin = origin - reach;
    const std::size_t eval_end = std::min(series.size(), origin + fold_size);
    const series::TimeSeries eval_slice = series.slice(eval_begin, eval_end);

    if (train_slice.size() < min_train) continue;
    const WindowDataset train(train_slice, options.window, options.horizon, options.stride);
    const WindowDataset eval(eval_slice, options.window, options.horizon, options.stride);

    const TrainResult trained = ef::core::train(train, {.config = config, .pool = pool});
    const auto forecast = trained.system.forecast_dataset(eval, pool);
    std::vector<double> actual;
    actual.reserve(eval.count());
    for (std::size_t i = 0; i < eval.count(); ++i) actual.push_back(eval.target(i));

    BacktestFold fold;
    fold.origin = origin;
    fold.report = series::evaluate_partial(actual, forecast);
    fold.rules = trained.system.size();

    coverage_sum += fold.report.coverage_percent;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      if (!forecast[i]) continue;
      const double err = actual[i] - *forecast[i];
      sq_err_sum += err * err;
      abs_err_sum += std::abs(err);
      ++covered_total;
    }
    result.folds.push_back(std::move(fold));
    EVOFORECAST_COUNT("backtest.folds", 1);
  }

  if (result.folds.empty()) {
    throw std::invalid_argument("backtest_rule_system: no fold produced");
  }
  result.mean_coverage_percent = coverage_sum / static_cast<double>(result.folds.size());
  if (covered_total > 0) {
    result.pooled_rmse = std::sqrt(sq_err_sum / static_cast<double>(covered_total));
    result.pooled_mae = abs_err_sum / static_cast<double>(covered_total);
  }
  return result;
}

}  // namespace ef::core
