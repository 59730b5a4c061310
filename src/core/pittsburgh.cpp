#include "core/pittsburgh.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/init.hpp"
#include "core/mutation.hpp"

namespace ef::core {

void PittsburghConfig::validate() const {
  if (population_size < 2) {
    throw std::invalid_argument("PittsburghConfig: population_size must be >= 2");
  }
  if (rules_per_individual == 0 || min_rules == 0) {
    throw std::invalid_argument("PittsburghConfig: rule counts must be >= 1");
  }
  if (min_rules > max_rules || rules_per_individual > max_rules) {
    throw std::invalid_argument("PittsburghConfig: need min_rules <= sizes <= max_rules");
  }
  if (elite_count >= population_size) {
    throw std::invalid_argument("PittsburghConfig: elite_count must be < population_size");
  }
  if (tournament_rounds == 0) {
    throw std::invalid_argument("PittsburghConfig: tournament_rounds must be >= 1");
  }
  if (emax <= 0.0) throw std::invalid_argument("PittsburghConfig: emax must be > 0");
  for (const double p : {rule_mutation_prob, add_rule_prob, delete_rule_prob,
                         wildcard_toggle_prob}) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument("PittsburghConfig: probability out of [0,1]");
    }
  }
  if (mutation_scale <= 0.0) {
    throw std::invalid_argument("PittsburghConfig: mutation_scale must be > 0");
  }
}

PittsburghEngine::PittsburghEngine(const WindowDataset& data, PittsburghConfig config,
                                   util::ThreadPool* pool)
    : data_(data),
      config_(config),
      engine_(data, pool),
      rule_eval_config_([&] {
        EvolutionConfig adapter;
        adapter.emax = config.emax;
        adapter.f_min = -1.0;
        adapter.mutation_prob = config.rule_mutation_prob;
        adapter.mutation_scale = config.mutation_scale;
        adapter.wildcard_toggle_prob = config.wildcard_toggle_prob;
        adapter.seed = config.seed;
        return adapter;
      }()),
      evaluator_(engine_, rule_eval_config_),
      rng_(config.seed) {
  config_.validate();
  population_.reserve(config_.population_size);
  for (std::size_t i = 0; i < config_.population_size; ++i) {
    population_.push_back(make_random_individual());
  }
}

Rule PittsburghEngine::make_random_rule() {
  // Sample one stratified-style rule: bounding box of the patterns whose
  // target lies in a random sub-interval of the output range, which gives
  // Pittsburgh the same informed raw material as the Michigan init.
  const double lo = data_.target_min();
  const double hi = data_.target_max();
  const double width = (hi - lo) / 10.0;
  const double start = rng_.uniform(lo, hi - width > lo ? hi - width : lo);

  std::vector<double> mins(data_.window(), 0.0);
  std::vector<double> maxs(data_.window(), 0.0);
  bool any = false;
  for (std::size_t i = 0; i < data_.count(); ++i) {
    const double v = data_.target(i);
    if (v < start || v > start + width) continue;
    const auto w = data_.pattern(i);
    if (!any) {
      for (std::size_t j = 0; j < w.size(); ++j) mins[j] = maxs[j] = w[j];
      any = true;
    } else {
      for (std::size_t j = 0; j < w.size(); ++j) {
        mins[j] = std::min(mins[j], w[j]);
        maxs[j] = std::max(maxs[j], w[j]);
      }
    }
  }
  std::vector<Interval> genes;
  genes.reserve(data_.window());
  for (std::size_t j = 0; j < data_.window(); ++j) {
    if (any) {
      genes.emplace_back(mins[j], maxs[j]);
    } else {
      genes.emplace_back(data_.value_min(), data_.value_max());
    }
  }
  return Rule(std::move(genes));
}

RuleSetIndividual PittsburghEngine::make_random_individual() {
  RuleSetIndividual individual;
  individual.rules.reserve(config_.rules_per_individual);
  for (std::size_t r = 0; r < config_.rules_per_individual; ++r) {
    individual.rules.push_back(make_random_rule());
  }
  evaluate_individual(individual);
  return individual;
}

void PittsburghEngine::evaluate_individual(RuleSetIndividual& individual) {
  // One match pass for the whole set refits every rule's predicting part on
  // its own matched windows (the same derivation the Michigan evaluator
  // uses), then the same match sets score the SET: each window's votes are
  // summed in ascending rule order.
  std::vector<std::vector<std::size_t>> matched;
  evaluator_.evaluate_all(individual.rules, &matched);
  evaluations_ += individual.rules.size();
  std::vector<double> vote_sum(data_.count(), 0.0);
  std::vector<std::size_t> votes(data_.count(), 0);
  for (std::size_t r = 0; r < individual.rules.size(); ++r) {
    for (const std::size_t i : matched[r]) {
      vote_sum[i] += individual.rules[r].forecast(data_.pattern(i));
      ++votes[i];
    }
  }

  double fitness = 0.0;
  double abs_err_sum = 0.0;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < data_.count(); ++i) {
    if (votes[i] == 0) continue;
    ++covered;
    const double err =
        std::abs(vote_sum[i] / static_cast<double>(votes[i]) - data_.target(i));
    abs_err_sum += err;
    fitness += config_.emax - err;
  }
  individual.fitness = fitness;
  individual.coverage_percent =
      data_.count() ? 100.0 * static_cast<double>(covered) / static_cast<double>(data_.count())
                    : 0.0;
  individual.mean_abs_error = covered ? abs_err_sum / static_cast<double>(covered) : 0.0;
}

void PittsburghEngine::step() {
  ++generation_;

  std::vector<std::size_t> order(population_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(config_.elite_count),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return population_[a].fitness > population_[b].fitness;
                    });

  std::vector<RuleSetIndividual> next;
  next.reserve(population_.size());
  for (std::size_t e = 0; e < config_.elite_count; ++e) next.push_back(population_[order[e]]);

  const auto tournament = [&]() -> const RuleSetIndividual& {
    std::size_t best = rng_.index(population_.size());
    for (std::size_t round = 1; round < config_.tournament_rounds; ++round) {
      const std::size_t challenger = rng_.index(population_.size());
      if (population_[challenger].fitness > population_[best].fitness) best = challenger;
    }
    return population_[best];
  };

  while (next.size() < population_.size()) {
    const RuleSetIndividual& a = tournament();
    const RuleSetIndividual& b = tournament();

    // One-point set crossover: prefix of A's rules + suffix of B's.
    RuleSetIndividual child;
    const std::size_t cut_a = rng_.index(a.rules.size() + 1);
    const std::size_t cut_b = rng_.index(b.rules.size() + 1);
    child.rules.assign(a.rules.begin(), a.rules.begin() + static_cast<std::ptrdiff_t>(cut_a));
    child.rules.insert(child.rules.end(),
                       b.rules.begin() + static_cast<std::ptrdiff_t>(cut_b), b.rules.end());
    if (child.rules.empty()) child.rules.push_back(make_random_rule());
    if (child.rules.size() > config_.max_rules) child.rules.resize(config_.max_rules);

    // Structural mutations.
    if (rng_.bernoulli(config_.add_rule_prob) && child.rules.size() < config_.max_rules) {
      child.rules.push_back(make_random_rule());
    }
    if (rng_.bernoulli(config_.delete_rule_prob) && child.rules.size() > config_.min_rules) {
      const std::size_t victim = rng_.index(child.rules.size());
      child.rules.erase(child.rules.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    // Per-rule interval mutations (reuses the Michigan operators).
    for (Rule& rule : child.rules) {
      mutate_rule(rule, data_, rule_eval_config_, rng_);
    }

    evaluate_individual(child);
    next.push_back(std::move(child));
  }
  population_ = std::move(next);
}

void PittsburghEngine::run() {
  while (generation_ < config_.generations) step();
}

void PittsburghEngine::run_evaluations(std::size_t budget) {
  while (evaluations_ < budget) step();
}

const RuleSetIndividual& PittsburghEngine::best() const {
  if (population_.empty()) throw std::logic_error("PittsburghEngine::best: empty population");
  const RuleSetIndividual* best = &population_.front();
  for (const auto& individual : population_) {
    if (individual.fitness > best->fitness) best = &individual;
  }
  return *best;
}

RuleSystem PittsburghEngine::best_system() const {
  RuleSystem system;
  system.add_rules(std::vector<Rule>(best().rules), /*discard_unfit=*/false,
                   -std::numeric_limits<double>::infinity());
  return system;
}

}  // namespace ef::core
