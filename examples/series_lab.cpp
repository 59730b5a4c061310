// series_lab — a tour of the series substrate and the automation layers
// built on top of the paper's system:
//
//   1. every built-in generator (Mackey-Glass, Venice, sunspots, Lorenz)
//      with its descriptive statistics and ACF-detected dominant period,
//   2. automatic EMAX calibration (core/tuning) against a coverage target,
//   3. a walk-forward backtest (core/backtest) instead of one split,
//   4. forecasts with uncertainty bounds (Prediction::bound from
//      RuleSystem::forecast).
//
// Build & run:  ./build/examples/series_lab
#include <cmath>
#include <cstdio>

#include "core/backtest.hpp"
#include "core/rule_system.hpp"
#include "core/tuning.hpp"
#include "series/analysis.hpp"
#include "series/lorenz.hpp"
#include "series/mackey_glass.hpp"
#include "series/sunspot.hpp"
#include "series/transforms.hpp"
#include "series/venice.hpp"

namespace {

void describe(const ef::series::TimeSeries& s, std::size_t min_lag, std::size_t max_lag) {
  std::printf("%-16s n=%-6zu range=[%8.2f, %8.2f] mean=%8.2f sd=%7.2f", s.name().c_str(),
              s.size(), s.min(), s.max(), s.mean(), std::sqrt(s.variance()));
  if (const auto period = ef::series::detect_period(s, min_lag, max_lag)) {
    std::printf("  period~%zu (acf %.2f)\n", period->period, period->acf_value);
  } else {
    std::printf("  period: none detected\n");
  }
}

}  // namespace

int main() {
  std::printf("== 1. generators ==\n");
  const auto mg = ef::series::generate_mackey_glass(2000);
  const auto venice = ef::series::generate_venice(8000);
  const auto sunspots = ef::series::generate_sunspots(2739);
  const auto lorenz = ef::series::generate_lorenz(2000);
  describe(mg, 10, 200);
  describe(venice, 3, 40);
  describe(sunspots, 60, 240);
  describe(lorenz, 3, 100);

  std::printf("\n== 2. transforms ==\n");
  const auto diffed = ef::series::difference(venice, 24);
  std::printf("venice seasonal diff (lag 24): sd %.2f -> %.2f cm\n",
              std::sqrt(venice.variance()), std::sqrt(diffed.series.variance()));
  const auto logged = ef::series::log1p_transform(sunspots);
  std::printf("sunspots log1p: range [%.1f, %.1f] -> [%.2f, %.2f]\n", sunspots.min(),
              sunspots.max(), logged.min(), logged.max());

  std::printf("\n== 3. automatic EMAX calibration (Mackey-Glass, tau=6) ==\n");
  const ef::core::WindowDataset mg_train(mg.slice(0, 1500), 4, 6);
  ef::core::EvolutionConfig base;
  base.population_size = 50;
  base.generations = 2000;  // real runs would use more; tuner pilots are shorter
  base.seed = 5;
  ef::core::EmaxTuningOptions tuning;
  tuning.coverage_target_percent = 92.0;
  const auto tuned = ef::core::tune_emax(mg_train, base, tuning);
  std::printf("tuned EMAX = %.4f after %zu probes (pilot coverage %.1f%%)\n", tuned.emax,
              tuned.probes.size(), tuned.achieved_coverage_percent);

  std::printf("\n== 4. walk-forward backtest with the tuned budget ==\n");
  ef::core::RuleSystemConfig cfg;
  cfg.evolution = base;
  cfg.evolution.emax = tuned.emax;
  cfg.coverage_target_percent = 92.0;
  cfg.max_executions = 3;
  ef::core::BacktestOptions backtest;
  backtest.window = 4;
  backtest.horizon = 6;
  backtest.initial_train = 1000;
  backtest.fold_size = 200;
  const auto result = ef::core::backtest_rule_system(mg, cfg, backtest);
  for (const auto& fold : result.folds) {
    std::printf("  fold@%5zu: coverage %5.1f%%  rmse %.4f  (%zu rules)\n", fold.origin,
                fold.report.coverage_percent, fold.report.rmse, fold.rules);
  }
  std::printf("pooled: coverage %.1f%%, rmse %.4f, mae %.4f over %zu folds\n",
              result.mean_coverage_percent, result.pooled_rmse, result.pooled_mae,
              result.folds.size());

  std::printf("\n== 5. forecasts with uncertainty bounds ==\n");
  const ef::core::WindowDataset eval(mg.slice(1500, 2000), 4, 6);
  const auto trained = ef::core::train(mg_train, {.config = cfg});
  std::size_t covered = 0;
  std::size_t inside = 0;
  double bound_sum = 0.0;
  const ef::core::RulePlanes planes = trained.system.compile_planes(eval.window());
  for (std::size_t i = 0; i < eval.count(); ++i) {
    const ef::core::Prediction out = trained.system.forecast(planes, eval.pattern(i));
    if (out.abstained) continue;
    ++covered;
    bound_sum += out.bound;
    if (std::abs(eval.target(i) - out.value) <= out.bound) ++inside;
  }
  if (covered > 0) {
    std::printf("held-out: %zu covered windows, mean bound ±%.4f, actual inside the "
                "bound %.1f%% of the time\n",
                covered, bound_sum / static_cast<double>(covered),
                100.0 * static_cast<double>(inside) / static_cast<double>(covered));
  }
  return 0;
}
