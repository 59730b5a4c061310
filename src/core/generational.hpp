// generational.hpp — generational GA engine (ablation of the paper's §3.3
// steady-state choice).
//
// The paper evolves steady-state: one offspring per generation, crowding
// replacement. The textbook alternative replaces the whole population each
// generation (tournament parents → crossover → mutation for every slot) with
// elitism. Crowding has no direct analogue here, so diversity relies on the
// stochastic operators alone — exactly the weakness the paper's choice
// avoids, and what Ablation G quantifies. Budget accounting: one
// generational step costs population_size offspring evaluations, so compare
// engines at equal *evaluations*, not equal generations.
#pragma once

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/fitness.hpp"
#include "core/match_engine.hpp"
#include "core/rule.hpp"
#include "core/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ef::core {

struct GenerationalConfig {
  EvolutionConfig base;      ///< shared parameters (population, operators, EMAX…)
  std::size_t elite_count = 2;  ///< best individuals copied unchanged

  void validate() const;
};

class GenerationalEngine {
 public:
  GenerationalEngine(const WindowDataset& data, GenerationalConfig config,
                     util::ThreadPool* pool = nullptr, TelemetrySink telemetry = {});

  /// Not copyable or movable: evaluator_ refers to this engine's own engine_
  /// and config_, so a copy would evaluate through the source's members.
  GenerationalEngine(const GenerationalEngine&) = delete;
  GenerationalEngine& operator=(const GenerationalEngine&) = delete;

  /// One full generational replacement (population_size offspring
  /// evaluations). Returns the number of offspring fitter than the slot
  /// they took (informational).
  std::size_t step();

  /// Run until `evaluations()` reaches `budget` offspring evaluations.
  void run_evaluations(std::size_t budget);

  [[nodiscard]] const std::vector<Rule>& population() const noexcept { return population_; }
  [[nodiscard]] std::size_t generation() const noexcept { return generation_; }
  /// Offspring evaluations consumed so far (excludes the initial population).
  [[nodiscard]] std::size_t evaluations() const noexcept { return evaluations_; }
  [[nodiscard]] TelemetryRecord snapshot() const;

 private:
  void emit_telemetry();

  const WindowDataset& data_;
  GenerationalConfig config_;
  MatchEngine engine_;
  Evaluator evaluator_;
  util::Rng rng_;
  TelemetrySink telemetry_;

  std::vector<Rule> population_;
  std::size_t generation_ = 0;
  std::size_t evaluations_ = 0;
};

}  // namespace ef::core
