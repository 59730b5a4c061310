// custom_csv_forecast — bring-your-own-data workflow, including persistence.
//
//   custom_csv_forecast [--input data.csv] [--column 0] [--window 12]
//                       [--horizon 1] [--train-fraction 0.8]
//                       [--model rules.efr]
//
// Reads a numeric CSV column as a series, splits chronologically, trains the
// rule system, reports coverage/error on the held-out tail, saves the rule
// set to disk, reloads it, and verifies the round trip. Without --input it
// generates a demo series so the example always runs out of the box.
//
// Build & run:  ./build/examples/custom_csv_forecast
#include <cmath>
#include <cstdio>
#include <fstream>
#include <vector>

#include "core/rule_system.hpp"
#include "obs/run_report.hpp"
#include "series/csv.hpp"
#include "series/metrics.hpp"
#include "series/timeseries.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

/// Demo series when no --input is given: a daily-ish cycle with occasional
/// level shifts (local regimes), so the rule system has something local to
/// learn.
ef::series::TimeSeries demo_series() {
  ef::util::Rng rng(2026);
  std::vector<double> v;
  double level = 50.0;
  for (int t = 0; t < 3000; ++t) {
    if (rng.bernoulli(0.002)) level += rng.uniform(-25.0, 25.0);  // regime shift
    v.push_back(level + 12.0 * std::sin(t * 0.26) + rng.normal(0.0, 1.5));
  }
  return ef::series::TimeSeries(std::move(v), "demo");
}

}  // namespace

int main(int argc, char** argv) {
  const ef::util::Cli cli(argc, argv);

  // --- load ------------------------------------------------------------------
  ef::series::TimeSeries series = [&] {
    if (const auto path = cli.get("input")) {
      const auto column = static_cast<std::size_t>(cli.get_int("column", 0));
      std::printf("reading column %zu of %s\n", column, path->c_str());
      return ef::series::read_series_csv(*path, column);
    }
    std::printf("no --input given; using the built-in demo series\n");
    return demo_series();
  }();
  std::printf("series '%s': %zu samples in [%.2f, %.2f]\n", series.name().c_str(),
              series.size(), series.min(), series.max());

  // --- split -----------------------------------------------------------------
  const double train_fraction = cli.get_double("train-fraction", 0.8);
  const auto train_size = static_cast<std::size_t>(
      static_cast<double>(series.size()) * train_fraction);
  const auto split = ef::series::split_at(series, train_size);

  const auto window = static_cast<std::size_t>(cli.get_int("window", 12));
  const auto horizon = static_cast<std::size_t>(cli.get_int("horizon", 1));
  const ef::core::WindowDataset train(split.train, window, horizon);
  const ef::core::WindowDataset validation(split.validation, window, horizon);

  // --- train -----------------------------------------------------------------
  ef::core::RuleSystemConfig config;
  config.evolution.population_size = 100;
  config.evolution.generations = static_cast<std::size_t>(cli.get_int("generations", 8000));
  // Default EMAX: 10 % of the training range — override per dataset.
  config.evolution.emax =
      cli.get_double("emax", 0.10 * (split.train.max() - split.train.min()));
  config.evolution.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  config.coverage_target_percent = 95.0;
  config.max_executions = 5;

  std::printf("training: D=%zu, tau=%zu, EMAX=%.3f, %zu windows\n", window, horizon,
              config.evolution.emax, train.count());
  const auto result = ef::core::train(train, {.config = config});

  const auto forecast = result.system.forecast_dataset(validation);
  std::vector<double> actual;
  for (std::size_t i = 0; i < validation.count(); ++i) actual.push_back(validation.target(i));
  const auto report = ef::series::evaluate_partial(actual, forecast);
  std::printf("held-out tail: coverage %.1f%%, RMSE %.4f, MAE %.4f (NMSE %.4f)\n",
              report.coverage_percent, report.rmse, report.mae, report.nmse);

  // --- persist and reload ------------------------------------------------------
  const std::string model_path = cli.get_string("model", "rules.efr");
  {
    std::ofstream out(model_path);
    result.system.save(out);
  }
  std::printf("saved %zu rules to %s\n", result.system.size(), model_path.c_str());

  std::ifstream in(model_path);
  const auto reloaded = ef::core::RuleSystem::load(in);
  // Spot-check: the reloaded system must forecast identically.
  const ef::core::RulePlanes planes_a = result.system.compile_planes(validation.window());
  const ef::core::RulePlanes planes_b = reloaded.compile_planes(validation.window());
  std::size_t checked = 0;
  for (std::size_t i = 0; i < validation.count() && checked < 50; ++i) {
    const auto a = result.system.forecast(planes_a, validation.pattern(i)).as_optional();
    const auto b = reloaded.forecast(planes_b, validation.pattern(i)).as_optional();
    if (a.has_value() != b.has_value() ||
        (a && std::abs(*a - *b) > 1e-9)) {
      std::printf("round-trip MISMATCH at window %zu\n", i);
      return 1;
    }
    ++checked;
  }
  std::printf("reloaded model verified on %zu windows — save/load round trip OK\n", checked);
  ef::obs::emit_cli_report(cli);
  return 0;
}
