#include "core/introspection.hpp"

#include <algorithm>
#include <stdexcept>

namespace ef::core {

ForecastExplanation explain(const RuleSystem& system, std::span<const double> window,
                            Aggregation how) {
  ForecastExplanation explanation;
  std::vector<Vote> votes;
  for (const std::size_t r : system.voters(window)) {
    const Rule& rule = system.rules()[r];
    const Vote vote = vote_of(rule, window);
    explanation.voters.push_back(RuleExplanation{r, vote.value, vote.fitness, vote.error,
                                                 rule.predicting()->matches,
                                                 rule.specificity()});
    votes.push_back(vote);
  }
  explanation.forecast = aggregate_votes(std::move(votes), how);
  return explanation;
}

std::vector<double> gene_importance(const RuleSystem& system, double value_lo,
                                    double value_hi) {
  if (!(value_hi > value_lo)) {
    throw std::invalid_argument("gene_importance: value_hi must exceed value_lo");
  }
  const auto& rules = system.rules();
  if (rules.empty()) return {};
  const std::size_t dims = rules.front().window();
  const double range = value_hi - value_lo;

  std::vector<double> weighted(dims, 0.0);
  double total_weight = 0.0;
  constexpr double kWeightFloor = 1e-6;  // keeps all-f_min populations defined
  for (const Rule& rule : rules) {
    if (rule.window() != dims) continue;  // mixed-window unions: skip misfits
    const double weight = std::max(rule.fitness(), 0.0) + kWeightFloor;
    total_weight += weight;
    for (std::size_t j = 0; j < dims; ++j) {
      const auto& gene = rule.genes()[j];
      const double selectivity =
          gene.is_wildcard()
              ? 0.0
              : std::clamp(1.0 - gene.width() / range, 0.0, 1.0);
      weighted[j] += weight * selectivity;
    }
  }
  if (total_weight > 0.0) {
    for (double& v : weighted) v /= total_weight;
  }
  return weighted;
}

}  // namespace ef::core
