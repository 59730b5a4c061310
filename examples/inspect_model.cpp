// inspect_model — command-line inspector for saved rule systems (.efr).
//
//   inspect_model --model rules.efr [--top 15] [--series data.csv
//                 --window 12 --horizon 1] [--encode]
//
// Prints the describe() summary; with --series, additionally reports
// coverage and coverage-aware errors of the saved model against that series
// and the per-rule vote counts. With --encode, dumps every rule in the
// paper's §3.1 flat text form. Without --model it trains a small demo model
// first so the example always runs out of the box.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/introspection.hpp"
#include "core/rule_system.hpp"
#include "obs/run_report.hpp"
#include "series/csv.hpp"
#include "series/metrics.hpp"
#include "series/synthetic.hpp"
#include "util/cli.hpp"

namespace {

ef::core::RuleSystem demo_model() {
  std::printf("no --model given; training a demo system on a noisy sine...\n");
  const auto s = ef::series::generate_sine(1500, {1.0, 25.0, 0.0, 0.0, 0.05, 9});
  const ef::core::WindowDataset train(s, 6, 1);
  ef::core::RuleSystemConfig cfg;
  cfg.evolution.population_size = 50;
  cfg.evolution.generations = 3000;
  cfg.evolution.emax = 0.25;
  cfg.evolution.seed = 12;
  cfg.max_executions = 2;
  cfg.coverage_target_percent = 95.0;
  return ef::core::train(train, {.config = cfg}).system;
}

}  // namespace

int main(int argc, char** argv) {
  const ef::util::Cli cli(argc, argv);

  ef::core::RuleSystem system = [&] {
    if (const auto path = cli.get("model")) {
      std::ifstream in(*path);
      if (!in) {
        std::fprintf(stderr, "cannot open model file '%s'\n", path->c_str());
        std::exit(1);
      }
      return ef::core::RuleSystem::load(in);
    }
    return demo_model();
  }();

  const auto top = static_cast<std::size_t>(cli.get_int("top", 15));
  std::ostringstream summary;
  system.describe(summary, top);
  std::fputs(summary.str().c_str(), stdout);

  if (cli.get_bool("encode")) {
    std::printf("\nfull rule encodings (paper §3.1 form):\n");
    for (const auto& rule : system.rules()) {
      std::printf("  %s\n", rule.encode().c_str());
    }
  }

  // Optional evaluation against a series.
  if (const auto series_path = cli.get("series")) {
    const auto window = static_cast<std::size_t>(cli.get_int("window", 6));
    const auto horizon = static_cast<std::size_t>(cli.get_int("horizon", 1));
    const auto column = static_cast<std::size_t>(cli.get_int("column", 0));
    const auto series = ef::series::read_series_csv(*series_path, column);
    const ef::core::WindowDataset data(series, window, horizon);

    const auto forecast = system.forecast_dataset(data);
    std::vector<double> actual;
    for (std::size_t i = 0; i < data.count(); ++i) actual.push_back(data.target(i));
    const auto report = ef::series::evaluate_partial(actual, forecast);
    std::printf("\nagainst %s (D=%zu, tau=%zu, %zu windows):\n", series_path->c_str(),
                window, horizon, data.count());
    std::printf("  coverage %.1f%%, RMSE %.4f, MAE %.4f, NMSE %.4f\n",
                report.coverage_percent, report.rmse, report.mae, report.nmse);

    // Vote distribution: how many rules typically agree on a window?
    std::size_t max_votes = 0;
    double mean_votes = 0.0;
    const auto predictions = system.forecast_batch(
        {data.pattern(0).data(), data.count() * window}, window);
    for (const ef::core::Prediction& p : predictions) {
      max_votes = std::max(max_votes, p.votes);
      mean_votes += static_cast<double>(p.votes);
    }
    mean_votes /= static_cast<double>(data.count());
    std::printf("  votes per covered window: mean %.1f, max %zu (of %zu rules)\n",
                mean_votes, max_votes, system.size());

    // Which lags does the rule set constrain? (0 = oldest gene position)
    const auto importance =
        ef::core::gene_importance(system, data.value_min(), data.value_max());
    std::printf("  gene importance:");
    for (const double v : importance) std::printf(" %.2f", v);
    std::printf("\n");
  }

  ef::obs::emit_cli_report(cli);
  return 0;
}
