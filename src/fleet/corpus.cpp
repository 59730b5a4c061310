#include "fleet/corpus.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <stdexcept>

#include "core/dataset.hpp"
#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::fleet {
namespace {

/// Evaluate one series: train on the prefix, score one-step forecasts over
/// the tail. Throws on series too short for (one training pattern + the
/// minimum holdout); the caller records the reason.
SeriesEvaluation evaluate_one(const SeriesRecord& record, const CorpusOptions& options,
                              util::ThreadPool* inline_pool) {
  SeriesEvaluation out;
  out.id = record.id;

  const std::size_t n = record.series.size();
  const std::size_t embed = (options.train.window - 1) * options.train.stride +
                            options.train.horizon;  // samples consumed before a target
  auto holdout = static_cast<std::size_t>(
      std::floor(options.holdout_fraction * static_cast<double>(n)));
  holdout = std::max(holdout, options.min_holdout);
  if (n < embed + 1 + holdout || holdout < options.min_holdout) {
    throw std::runtime_error("series too short for train + holdout split");
  }
  const std::size_t split = n - holdout;

  const series::TimeSeries train_part = record.series.slice(0, split);
  const core::WindowDataset train_data(train_part, options.train.window,
                                       options.train.horizon, options.train.stride);
  core::TrainOptions train_options;
  train_options.config = options.train.config;
  train_options.pool = inline_pool;
  train_options.parallelism = core::TrainParallelism::kSequential;
  train_options.seed = derive_series_seed(options.train.config.evolution.seed, record.id);
  const core::TrainResult trained = core::train(train_data, train_options);
  out.rules = trained.system.size();

  // Rolling-origin one-step evaluation: the slice starting embed samples
  // before the split yields exactly the patterns whose targets are the
  // holdout points, each forecast from true (not recursive) history.
  const series::TimeSeries eval_part = record.series.slice(split - embed, n);
  const core::WindowDataset eval_data(eval_part, options.train.window,
                                      options.train.horizon, options.train.stride);
  const series::PartialForecast predicted =
      trained.system.forecast_dataset(eval_data, inline_pool);
  out.report = series::evaluate_partial(eval_data.targets(), predicted);
  out.holdout_points = eval_data.count();
  return out;
}

}  // namespace

CorpusResult evaluate_fleet(std::span<const SeriesRecord> fleet, const CorpusOptions& options) {
  const obs::Span root_span("fleet.evaluate", obs::kRoot);
  const auto start = std::chrono::steady_clock::now();

  CorpusResult result;
  result.series.resize(fleet.size());

  static util::ThreadPool inline_pool(1);
  util::ThreadPool& tp =
      options.train.pool ? *options.train.pool : util::ThreadPool::shared();
  tp.parallel_for(
      0, fleet.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          obs::Span span("fleet.evaluate_series", root_span.context());
          span.set_arg("series", static_cast<double>(i));
          try {
            result.series[i] = evaluate_one(fleet[i], options, &inline_pool);
            EVOFORECAST_COUNT("fleet.series_evaluated", 1);
          } catch (const std::exception& e) {
            result.series[i].id = fleet[i].id;
            result.series[i].skipped = true;
            result.series[i].skip_reason = e.what();
            EVOFORECAST_COUNT("fleet.series_skipped", 1);
          }
        }
      },
      /*grain=*/1);

  // Pool covered-point errors across the fleet (sum-of-squares / sum-of-abs
  // recomposition from per-series reports, weighted by covered counts).
  double sum_sq = 0.0;
  double sum_abs = 0.0;
  for (const SeriesEvaluation& s : result.series) {
    if (s.skipped) {
      ++result.skipped;
      continue;
    }
    ++result.evaluated;
    result.total_points += s.report.total;
    result.covered_points += s.report.covered;
    const auto covered = static_cast<double>(s.report.covered);
    sum_sq += s.report.rmse * s.report.rmse * covered;
    sum_abs += s.report.mae * covered;
  }
  if (result.covered_points > 0) {
    const auto covered = static_cast<double>(result.covered_points);
    result.pooled_rmse = std::sqrt(sum_sq / covered);
    result.pooled_mae = sum_abs / covered;
  }
  if (result.total_points > 0) {
    result.percentage_of_prediction =
        100.0 * static_cast<double>(result.covered_points) /
        static_cast<double>(result.total_points);
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EVOFORECAST_EVENT("fleet.evaluate", {"series", fleet.size()},
                    {"evaluated", result.evaluated}, {"skipped", result.skipped},
                    {"pooled_rmse", result.pooled_rmse},
                    {"percentage_of_prediction", result.percentage_of_prediction});
  return result;
}

}  // namespace ef::fleet
