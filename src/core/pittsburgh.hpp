// pittsburgh.hpp — Pittsburgh-style rule-set evolution (the paper's §2
// road-not-taken, implemented for Ablation H).
//
// In the Michigan approach each individual is ONE rule and the population is
// the solution; in the Pittsburgh approach (Smith's LS-1 lineage) each
// individual is a WHOLE rule set and the best individual is the solution.
// The paper chose Michigan to let unusual behaviours keep dedicated rules;
// Pittsburgh's set-level fitness rewards aggregate performance, so rare
// regimes can be sacrificed for average accuracy. Ablation H measures that
// difference at an equal rule-evaluation budget.
//
// Set-level fitness over the training windows (consistent in spirit with the
// paper's per-rule formula):
//   fitness = Σ_covered (EMAX − |ŷ − y|)
// i.e. every covered window contributes its error headroom; uncovered
// windows contribute nothing. Monotone in coverage while errors stay below
// EMAX, and error-punishing above it.
#pragma once

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/fitness.hpp"
#include "core/match_engine.hpp"
#include "core/rule.hpp"
#include "core/rule_system.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ef::core {

struct PittsburghConfig {
  std::size_t population_size = 20;      ///< number of rule SETS
  std::size_t rules_per_individual = 15; ///< initial set size
  std::size_t min_rules = 2;
  std::size_t max_rules = 40;
  std::size_t generations = 50;  ///< generational replacements
  std::size_t elite_count = 2;
  std::size_t tournament_rounds = 3;

  /// Per-rule structural mutation (reuses the Michigan interval operators).
  double rule_mutation_prob = 0.3;
  /// Set-level edits per offspring: add a fresh rule / delete a random rule.
  double add_rule_prob = 0.15;
  double delete_rule_prob = 0.15;

  double emax = 0.1;
  std::uint64_t seed = 1;

  /// The Michigan operator parameters reused for per-gene edits.
  double mutation_scale = 0.1;
  double wildcard_toggle_prob = 0.05;

  void validate() const;
};

/// One Pittsburgh individual: a rule set plus its cached set fitness.
struct RuleSetIndividual {
  std::vector<Rule> rules;
  double fitness = 0.0;
  double coverage_percent = 0.0;
  double mean_abs_error = 0.0;  ///< over covered windows
};

class PittsburghEngine {
 public:
  PittsburghEngine(const WindowDataset& data, PittsburghConfig config,
                   util::ThreadPool* pool = nullptr);

  /// Not copyable or movable: evaluator_ refers to this engine's own engine_
  /// and rule_eval_config_, so a copy would evaluate through the source's
  /// members.
  PittsburghEngine(const PittsburghEngine&) = delete;
  PittsburghEngine& operator=(const PittsburghEngine&) = delete;

  /// One generational replacement. Each offspring costs |rules| rule
  /// evaluations (tracked by evaluations()).
  void step();
  void run();
  /// Run until at least `budget` rule evaluations have been consumed.
  void run_evaluations(std::size_t budget);

  [[nodiscard]] const std::vector<RuleSetIndividual>& population() const noexcept {
    return population_;
  }
  [[nodiscard]] const RuleSetIndividual& best() const;
  /// The solution: the best individual's rules as a queryable RuleSystem.
  [[nodiscard]] RuleSystem best_system() const;

  [[nodiscard]] std::size_t generation() const noexcept { return generation_; }
  /// Rule evaluations consumed (match+regress per rule), incl. the initial
  /// population.
  [[nodiscard]] std::size_t evaluations() const noexcept { return evaluations_; }

 private:
  void evaluate_individual(RuleSetIndividual& individual);
  [[nodiscard]] RuleSetIndividual make_random_individual();
  [[nodiscard]] Rule make_random_rule();

  const WindowDataset& data_;
  PittsburghConfig config_;
  MatchEngine engine_;
  EvolutionConfig rule_eval_config_;  ///< adapter for the shared Evaluator
  Evaluator evaluator_;
  util::Rng rng_;

  std::vector<RuleSetIndividual> population_;
  std::size_t generation_ = 0;
  std::size_t evaluations_ = 0;
};

}  // namespace ef::core
