#include "core/generational.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/crossover.hpp"
#include "core/init.hpp"
#include "core/mutation.hpp"
#include "core/selection.hpp"
#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::core {

void GenerationalConfig::validate() const {
  base.validate();
  if (elite_count >= base.population_size) {
    throw std::invalid_argument("GenerationalConfig: elite_count must be < population_size");
  }
}

GenerationalEngine::GenerationalEngine(const WindowDataset& data, GenerationalConfig config,
                                       util::ThreadPool* pool, TelemetrySink telemetry)
    : data_(data),
      config_(config),
      engine_(data, pool, resolve_match_backend(config.base.match_backend)),
      evaluator_(engine_, config_.base),
      rng_(config.base.seed),
      telemetry_(std::move(telemetry)) {
  config_.validate();
  population_ = initialize_population(data_, config_.base, rng_);
  evaluator_.evaluate_all(population_);
  emit_telemetry();  // generation-0 snapshot
}

void GenerationalEngine::emit_telemetry() {
#if !EVOFORECAST_OBS_ENABLED
  if (!telemetry_) return;  // nothing to feed: no sink, events compiled out
#endif
  TelemetryRecord rec = snapshot();
  rec.registry = &obs::Registry::global();
  EVOFORECAST_EVENT("train.generation", {"engine", "generational"},
                    {"generation", rec.generation}, {"best_fitness", rec.best_fitness},
                    {"mean_fitness", rec.mean_fitness}, {"mean_error", rec.mean_error},
                    {"mean_matches", rec.mean_matches},
                    {"replacements", rec.replacements});
  if (telemetry_) telemetry_(rec);
}

std::size_t GenerationalEngine::step() {
  const obs::Span span("core.generational.step");
  ++generation_;

  // Elites: indices of the top-k by fitness, copied unchanged.
  std::vector<std::size_t> order(population_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(config_.elite_count),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return population_[a].fitness() > population_[b].fitness();
                    });

  std::vector<Rule> next;
  next.reserve(population_.size());
  for (std::size_t e = 0; e < config_.elite_count; ++e) {
    next.push_back(population_[order[e]]);
  }

  // Generate the whole offspring cohort first (same RNG call order as the
  // old generate-evaluate interleave: selection, crossover and mutation draw
  // nothing during evaluation), then evaluate it as one batch — a single
  // plane build + window pass per generation instead of one sweep per
  // offspring.
  const std::size_t offspring_count = population_.size() - next.size();
  std::vector<Rule> offspring;
  offspring.reserve(offspring_count);
  for (std::size_t k = 0; k < offspring_count; ++k) {
    const ParentPair parents =
        select_parents(population_, config_.base.tournament_rounds, rng_);
    EVOFORECAST_COUNT("evolution.tournament_rounds", config_.base.tournament_rounds);
    Rule child =
        uniform_crossover(population_[parents.first], population_[parents.second], rng_);
    mutate_rule(child, data_, config_.base, rng_);
    EVOFORECAST_COUNT("evolution.offspring_generated", 1);
    offspring.push_back(std::move(child));
  }
  evaluator_.evaluate_all(offspring);
  evaluations_ += offspring_count;

  std::size_t improved = 0;
  for (std::size_t k = 0; k < offspring_count; ++k) {
    // Same comparison the interleaved loop made: offspring k lands at slot
    // elite_count + k and is scored against the rule previously there.
    if (offspring[k].fitness() > population_[config_.elite_count + k].fitness()) {
      ++improved;
      EVOFORECAST_COUNT("evolution.offspring_accepted", 1);
    }
    next.push_back(std::move(offspring[k]));
  }
  population_ = std::move(next);

  if (config_.base.telemetry_stride != 0 &&
      generation_ % config_.base.telemetry_stride == 0) {
    emit_telemetry();
  }
  return improved;
}

void GenerationalEngine::run_evaluations(std::size_t budget) {
  while (evaluations_ < budget) step();
}

TelemetryRecord GenerationalEngine::snapshot() const {
  TelemetryRecord rec;
  rec.generation = generation_;
  if (population_.empty()) return rec;
  double best = population_.front().fitness();
  double sum = 0.0;
  double err = 0.0;
  double matches = 0.0;
  double spec = 0.0;
  for (const Rule& r : population_) {
    best = std::max(best, r.fitness());
    sum += r.fitness();
    if (r.predicting()) {
      err += r.predicting()->error();
      matches += static_cast<double>(r.predicting()->matches);
    }
    spec += static_cast<double>(r.specificity());
  }
  const auto n = static_cast<double>(population_.size());
  rec.best_fitness = best;
  rec.mean_fitness = sum / n;
  rec.mean_error = err / n;
  rec.mean_matches = matches / n;
  rec.mean_specificity = spec / n;
  return rec;
}

}  // namespace ef::core
