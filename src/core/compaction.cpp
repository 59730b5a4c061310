#include "core/compaction.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "core/match_engine.hpp"

namespace ef::core {

bool condition_subsumed(const Rule& inner, const Rule& outer) {
  if (inner.window() != outer.window()) return false;
  for (std::size_t j = 0; j < inner.window(); ++j) {
    if (!inner.genes()[j].subset_of(outer.genes()[j])) return false;
  }
  return true;
}

namespace {

[[nodiscard]] bool same_genes(const Rule& a, const Rule& b) {
  if (a.window() != b.window()) return false;
  for (std::size_t j = 0; j < a.window(); ++j) {
    if (!(a.genes()[j] == b.genes()[j])) return false;
  }
  return true;
}

}  // namespace

RuleSystem compact(const RuleSystem& system, CompactionReport& report,
                   const CompactionOptions& options, const WindowDataset* reference) {
  report = CompactionReport{};
  report.input_rules = system.size();

  const auto& rules = system.rules();
  std::vector<bool> dropped(rules.size(), false);

  // Pass 1: exact duplicates (keep the first occurrence — highest-fitness
  // copies are interchangeable since genes determine the refit).
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (dropped[i]) continue;
    for (std::size_t j = i + 1; j < rules.size(); ++j) {
      if (!dropped[j] && same_genes(rules[i], rules[j])) {
        dropped[j] = true;
        ++report.duplicates_removed;
      }
    }
  }

  // Pass 2: subsumption. The *subsumed* (inner) rule is removed only when a
  // surviving outer rule predicts essentially the same value, so every
  // window the inner rule served keeps a voter.
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (dropped[i] || !rules[i].predicting()) continue;
    for (std::size_t j = 0; j < rules.size(); ++j) {
      if (i == j || dropped[j] || !rules[j].predicting()) continue;
      if (!condition_subsumed(rules[i], rules[j])) continue;
      // Same box both ways = same acceptance set; keep the lower index.
      if (condition_subsumed(rules[j], rules[i]) && j < i) continue;
      const double gap = std::abs(rules[i].predicting()->prediction() -
                                  rules[j].predicting()->prediction());
      if (gap <= options.prediction_tolerance) {
        dropped[i] = true;
        ++report.subsumed_removed;
        break;
      }
    }
  }

  // Pass 3: rules that never fire on the reference dataset.
  if (options.drop_unfired && reference) {
    const auto fired = MatchEngine(*reference).match_all(rules);
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (!dropped[i] && fired[i].empty()) {
        dropped[i] = true;
        ++report.unfired_removed;
      }
    }
  }

  RuleSystem out;
  std::vector<Rule> kept;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (!dropped[i]) kept.push_back(rules[i]);
  }
  out.add_rules(std::move(kept), /*discard_unfit=*/false,
                -std::numeric_limits<double>::infinity());
  return out;
}

}  // namespace ef::core
