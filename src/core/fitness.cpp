#include "core/fitness.hpp"

namespace ef::core {

Evaluator::Evaluator(const MatchEngine& engine, const EvolutionConfig& config,
                     RegressionOptions regression)
    : engine_(engine), config_(config), regression_(regression) {}

namespace {

/// Regress-and-score for an already-matched rule: the shared tail of the
/// single-rule and batched paths, so both produce byte-identical
/// PredictingParts by construction.
void score_matched(Rule& rule, const std::vector<std::size_t>& matched,
                   const MatchEngine& engine, const EvolutionConfig& config,
                   const RegressionOptions& regression) {
  PredictingPart part;
  part.matches = matched.size();
  if (matched.empty()) {
    // No matched window: no regression is definable. e_R is set to EMAX so
    // traces show the rule as "at the error bound"; fitness is f_min.
    part.fit.coeffs.assign(engine.data().window() + 1, 0.0);
    part.fit.max_abs_residual = config.emax;
    part.fit.degenerate = true;
    part.fitness = config.f_min;
  } else {
    part.fit = fit_hyperplane(engine.data(), matched, regression);
    part.fitness =
        fitness_value(part.matches, part.fit.max_abs_residual, config.emax, config.f_min);
  }
  rule.set_predicting(std::move(part));
}

}  // namespace

void Evaluator::evaluate(Rule& rule, std::vector<std::size_t>* keep_matches) const {
  std::vector<std::size_t> matched = engine_.match_indices(rule);
  score_matched(rule, matched, engine_, config_, regression_);
  if (keep_matches) *keep_matches = std::move(matched);
}

void Evaluator::evaluate_all(std::span<Rule> population,
                             std::vector<std::vector<std::size_t>>* keep_matches) const {
  std::vector<std::vector<std::size_t>> matched = engine_.match_all(population);
  // Batching materializes every rule's match set before any scoring, so the
  // regress-and-score tail can fan out across the pool: each rule's fit is
  // self-contained and writes only its own slot, making the result
  // bit-identical to the serial loop for any worker count. (The per-rule
  // evaluate() path interleaves match → score and stays serial.)
  if (population.size() > 1) {
    engine_.pool().parallel_for(0, population.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        score_matched(population[k], matched[k], engine_, config_, regression_);
      }
    });
  } else {
    for (std::size_t k = 0; k < population.size(); ++k) {
      score_matched(population[k], matched[k], engine_, config_, regression_);
    }
  }
  if (keep_matches) *keep_matches = std::move(matched);
}

}  // namespace ef::core
