#include "core/evolution.hpp"

#include <algorithm>

#include <stdexcept>

#include "core/crossover.hpp"
#include "core/mutation.hpp"
#include "core/selection.hpp"
#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::core {

SteadyStateEngine::SteadyStateEngine(const WindowDataset& data, EvolutionConfig config,
                                     util::ThreadPool* pool, TelemetrySink telemetry)
    : SteadyStateEngine(data, config, std::vector<Rule>{}, pool, std::move(telemetry)) {}

SteadyStateEngine::SteadyStateEngine(const WindowDataset& data, EvolutionConfig config,
                                     std::vector<Rule> seed_population,
                                     util::ThreadPool* pool, TelemetrySink telemetry)
    : data_(data),
      config_(config),
      engine_(data, pool, resolve_match_backend(config.match_backend)),
      evaluator_(engine_, config_),
      rng_(config.seed),
      telemetry_(std::move(telemetry)) {
  config_.validate();

  if (seed_population.empty()) {
    population_ = initialize_population(data_, config_, rng_);
  } else {
    // Warm start. Drop rules whose window length doesn't fit the data, then
    // top up / trim to population_size.
    population_.reserve(config_.population_size);
    for (Rule& rule : seed_population) {
      if (rule.window() == data_.window()) {
        rule.clear_predicting();  // stale against the new data
        population_.push_back(std::move(rule));
      }
    }
    if (population_.size() < config_.population_size) {
      auto fresh = initialize_population(data_, config_, rng_);
      for (Rule& rule : fresh) {
        if (population_.size() >= config_.population_size) break;
        population_.push_back(std::move(rule));
      }
    }
  }

  const bool track_matches = config_.distance == DistanceMetric::kMatchedJaccard &&
                             config_.replacement == ReplacementStrategy::kCrowding;
  // Initial population: one batched pass (the whole set is matched in a
  // single window sweep).
  evaluator_.evaluate_all(population_, track_matches ? &matched_ : nullptr);

  // Warm start with surplus seeds: keep the fittest population_size rules.
  if (population_.size() > config_.population_size) {
    std::sort(population_.begin(), population_.end(),
              [](const Rule& a, const Rule& b) { return a.fitness() > b.fitness(); });
    population_.resize(config_.population_size);
    if (track_matches) {
      // Matched sets were evaluated pre-sort; re-evaluate to realign.
      evaluator_.evaluate_all(population_, &matched_);
    }
  }
  emit_telemetry();  // generation-0 snapshot
}

bool SteadyStateEngine::step() {
  const obs::Span span("core.evolution.step");
  ++generation_;

  const ParentPair parents = select_parents(population_, config_.tournament_rounds, rng_);
  EVOFORECAST_COUNT("evolution.tournament_rounds", config_.tournament_rounds);
  Rule offspring =
      uniform_crossover(population_[parents.first], population_[parents.second], rng_);
  mutate_rule(offspring, data_, config_, rng_);
  EVOFORECAST_COUNT("evolution.offspring_generated", 1);

  const bool track_matches = !matched_.empty();
  std::vector<std::size_t> offspring_matches;
  evaluator_.evaluate(offspring, track_matches ? &offspring_matches : nullptr);

  const std::size_t victim =
      choose_victim(population_, offspring, config_, data_, rng_, matched_, offspring_matches);

  bool accepted = false;
  if (offspring.fitness() > population_[victim].fitness()) {
    population_[victim] = std::move(offspring);
    if (track_matches) matched_[victim] = std::move(offspring_matches);
    ++replacements_;
    accepted = true;
    EVOFORECAST_COUNT("evolution.offspring_accepted", 1);
    if (config_.replacement == ReplacementStrategy::kCrowding) {
      EVOFORECAST_COUNT("evolution.crowding_replacements", 1);
    }
  }

  if (config_.telemetry_stride != 0 && generation_ % config_.telemetry_stride == 0) {
    emit_telemetry();
  }
  return accepted;
}

bool SteadyStateEngine::run(const std::atomic<bool>* stop) {
  const obs::Span span("core.evolution.run");
  while (generation_ < config_.generations) {
    if (stop && stop->load(std::memory_order_relaxed)) return false;
    step();
  }
  return true;
}

const Rule& SteadyStateEngine::best() const {
  if (population_.empty()) throw std::logic_error("SteadyStateEngine::best: empty population");
  const Rule* best = &population_.front();
  for (const Rule& r : population_) {
    if (r.fitness() > best->fitness()) best = &r;
  }
  return *best;
}

TelemetryRecord SteadyStateEngine::snapshot() const {
  TelemetryRecord rec;
  rec.generation = generation_;
  rec.replacements = replacements_;
  if (population_.empty()) return rec;

  double best_fitness = population_.front().fitness();
  double fitness_sum = 0.0;
  double error_sum = 0.0;
  double matches_sum = 0.0;
  double specificity_sum = 0.0;
  for (const Rule& r : population_) {
    const double f = r.fitness();
    best_fitness = f > best_fitness ? f : best_fitness;
    fitness_sum += f;
    if (r.predicting()) {
      error_sum += r.predicting()->error();
      matches_sum += static_cast<double>(r.predicting()->matches);
    }
    specificity_sum += static_cast<double>(r.specificity());
  }
  const auto n = static_cast<double>(population_.size());
  rec.best_fitness = best_fitness;
  rec.mean_fitness = fitness_sum / n;
  rec.mean_error = error_sum / n;
  rec.mean_matches = matches_sum / n;
  rec.mean_specificity = specificity_sum / n;
  return rec;
}

void SteadyStateEngine::emit_telemetry() {
#if !EVOFORECAST_OBS_ENABLED
  if (!telemetry_) return;  // nothing to feed: no sink, events compiled out
#endif
  TelemetryRecord rec = snapshot();
  rec.registry = &obs::Registry::global();
  EVOFORECAST_EVENT("train.generation", {"engine", "steady_state"},
                    {"generation", rec.generation}, {"best_fitness", rec.best_fitness},
                    {"mean_fitness", rec.mean_fitness}, {"mean_error", rec.mean_error},
                    {"mean_matches", rec.mean_matches},
                    {"replacements", rec.replacements});
  if (telemetry_) telemetry_(rec);
}

}  // namespace ef::core
