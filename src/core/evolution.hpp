// evolution.hpp — the steady-state Michigan engine (paper §3.3).
//
// Per generation: select two parents by tournament, produce ONE offspring by
// uniform crossover, mutate it, evaluate it against the training data, find
// the victim slot (crowding by default) and replace only if the offspring is
// fitter. The *population* is the solution — there is no "best individual"
// answer; RuleSystem (rule_system.hpp) turns populations into a predictor.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/crowding.hpp"
#include "core/dataset.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "core/match_engine.hpp"
#include "core/rule.hpp"
#include "core/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ef::core {

class SteadyStateEngine {
 public:
  /// `data` must outlive the engine. Throws std::invalid_argument on an
  /// invalid config. The population is initialised and evaluated eagerly.
  SteadyStateEngine(const WindowDataset& data, EvolutionConfig config,
                    util::ThreadPool* pool = nullptr, TelemetrySink telemetry = {});

  /// Warm-start constructor: seed the engine with an existing population
  /// instead of running initialisation — the basis of incremental updates
  /// when new data arrives (rule_system.hpp: extend_rule_system). The seed
  /// rules are re-evaluated against `data` (their predicting parts may be
  /// stale); if more rules than population_size are given the fittest
  /// survive, if fewer, fresh initialised rules fill the gap.
  SteadyStateEngine(const WindowDataset& data, EvolutionConfig config,
                    std::vector<Rule> seed_population, util::ThreadPool* pool = nullptr,
                    TelemetrySink telemetry = {});

  /// Not copyable or movable: evaluator_ refers to this engine's own engine_
  /// and config_, so a copy would evaluate through the source's members.
  SteadyStateEngine(const SteadyStateEngine&) = delete;
  SteadyStateEngine& operator=(const SteadyStateEngine&) = delete;

  /// One steady-state generation. Returns true when the offspring was
  /// accepted into the population.
  bool step();

  /// Run `config.generations` − `generation()` remaining generations.
  /// When `stop` is given it is read before each generation, and a set flag
  /// ends the run there (cooperative cancellation: the outer training loop
  /// stops executions the union will not use). Returns true when every
  /// generation ran, false when the run was stopped early.
  bool run(const std::atomic<bool>* stop = nullptr);

  [[nodiscard]] const std::vector<Rule>& population() const noexcept { return population_; }
  [[nodiscard]] std::size_t generation() const noexcept { return generation_; }
  [[nodiscard]] std::size_t replacements() const noexcept { return replacements_; }
  [[nodiscard]] const EvolutionConfig& config() const noexcept { return config_; }
  [[nodiscard]] const WindowDataset& data() const noexcept { return data_; }

  /// Fittest individual (for traces; the solution is the whole population).
  [[nodiscard]] const Rule& best() const;

  /// Current population snapshot statistics (also emitted via telemetry).
  [[nodiscard]] TelemetryRecord snapshot() const;

 private:
  void emit_telemetry();

  const WindowDataset& data_;
  EvolutionConfig config_;
  MatchEngine engine_;
  Evaluator evaluator_;
  util::Rng rng_;
  TelemetrySink telemetry_;

  std::vector<Rule> population_;
  /// Matched training-window sets per individual; maintained only when the
  /// crowding metric is kMatchedJaccard (kept empty otherwise).
  std::vector<std::vector<std::size_t>> matched_;

  std::size_t generation_ = 0;
  std::size_t replacements_ = 0;
};

}  // namespace ef::core
