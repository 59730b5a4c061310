// sunspot_cycle — interpretable local rules on the solar-cycle series.
//
// Beyond raw accuracy, a Michigan rule population is *inspectable*: each
// individual is one IF-intervals-THEN-predict statement. This example trains
// on the synthetic monthly sunspot record, then shows what the population
// learned: the most-used rules, how specific they are, and how coverage
// distributes across the activity range (rules specialising on minima vs
// maxima — the "local behaviours" of the paper's title).
//
// Build & run:  ./build/examples/sunspot_cycle
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/introspection.hpp"
#include "core/rule_system.hpp"
#include "series/metrics.hpp"
#include "series/sunspot.hpp"

int main() {
  const std::size_t window = 24;
  const std::size_t horizon = 12;  // one year ahead

  const auto experiment = ef::series::make_paper_sunspots();
  const ef::core::WindowDataset train(experiment.train, window, horizon);
  const ef::core::WindowDataset validation(experiment.validation, window, horizon);

  ef::core::RuleSystemConfig config;
  config.evolution.population_size = 100;
  config.evolution.generations = 15000;
  config.evolution.emax = 0.26;
  config.evolution.seed = 11;
  config.coverage_target_percent = 96.0;
  config.max_executions = 6;

  std::printf("training on %zu windows (train 1749-1919, horizon %zu months)...\n",
              train.count(), horizon);
  const auto result = ef::core::train(train, {.config = config});

  const auto forecast = result.system.forecast_dataset(validation);
  std::vector<double> actual;
  for (std::size_t i = 0; i < validation.count(); ++i) actual.push_back(validation.target(i));
  const auto report = ef::series::evaluate_partial(actual, forecast);
  std::printf("validation (1929-1977): coverage %.1f%%, NMSE %.4f\n\n",
              report.coverage_percent, report.nmse);

  // --- interpretability: which rules carry the system? ----------------------
  struct RuleUse {
    std::size_t index;
    std::size_t votes = 0;
  };
  std::vector<RuleUse> usage(result.system.size());
  for (std::size_t r = 0; r < usage.size(); ++r) usage[r].index = r;
  std::vector<std::vector<std::size_t>> voters(validation.count());
  for (std::size_t i = 0; i < validation.count(); ++i) {
    voters[i] = result.system.voters(validation.pattern(i));
    for (const std::size_t r : voters[i]) ++usage[r].votes;
  }
  std::sort(usage.begin(), usage.end(),
            [](const RuleUse& a, const RuleUse& b) { return a.votes > b.votes; });

  std::printf("top 5 most-used rules on the validation range:\n");
  std::printf("%5s %7s %6s %11s %10s %9s\n", "rule", "votes", "spec", "prediction",
              "max-err", "N_train");
  for (std::size_t k = 0; k < usage.size() && k < 5; ++k) {
    const auto& rule = result.system.rules()[usage[k].index];
    const auto& part = *rule.predicting();
    std::printf("%5zu %7zu %4zu/%zu %11.3f %10.3f %9zu\n", usage[k].index, usage[k].votes,
                rule.specificity(), window, part.prediction(), part.error(), part.matches);
  }

  // --- do rules specialise by activity regime? -------------------------------
  // Bucket validation windows by their actual target (low/mid/high activity)
  // and count how many *distinct* rules serve each bucket.
  const double lo_cut = 0.15;
  const double hi_cut = 0.45;  // normalised units
  std::vector<std::size_t> low_rules;
  std::vector<std::size_t> high_rules;
  for (std::size_t i = 0; i < validation.count(); ++i) {
    const double target = validation.target(i);
    for (const std::size_t r : voters[i]) {
      if (target < lo_cut) low_rules.push_back(r);
      if (target > hi_cut) high_rules.push_back(r);
    }
  }
  const auto distinct = [](std::vector<std::size_t>& v) {
    std::sort(v.begin(), v.end());
    return static_cast<std::size_t>(std::unique(v.begin(), v.end()) - v.begin());
  };
  const std::size_t n_low = distinct(low_rules);
  const std::size_t n_high = distinct(high_rules);
  std::printf("\nregime specialisation: %zu distinct rules fire at solar minima "
              "(target < %.2f),\n%zu distinct rules fire at maxima (target > %.2f); "
              "overlap is what the paper\ncalls rules for 'standard behaviours'.\n",
              n_low, lo_cut, n_high, hi_cut);

  // --- which lags does the population actually use? --------------------------
  const auto importance =
      ef::core::gene_importance(result.system, 0.0, 1.0);
  std::printf("\nlag importance (fitness-weighted gene selectivity, lag 1 = most "
              "recent month):\n  ");
  for (std::size_t j = importance.size(); j-- > 0;) {
    // Gene j corresponds to lag window-j months before the forecast origin.
    std::printf("%c", importance[j] > 0.5  ? '#'
                      : importance[j] > 0.25 ? '+'
                      : importance[j] > 0.05 ? '.'
                                             : ' ');
  }
  std::printf("   ('#' > 0.5, '+' > 0.25, '.' > 0.05)\n");

  std::printf("\nmost specific high-activity rule (full §3.1 encoding):\n");
  const ef::core::Rule* best = nullptr;
  for (const auto& rule : result.system.rules()) {
    if (rule.predicting()->prediction() > hi_cut &&
        (!best || rule.specificity() > best->specificity())) {
      best = &rule;
    }
  }
  if (best) std::printf("  %s\n", best->encode().c_str());
  return 0;
}
