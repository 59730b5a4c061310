#include "core/rule_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace ef::core {

RuleIndex::RuleIndex(const RuleSystem& system, double value_lo, double value_hi,
                     std::size_t buckets)
    : system_(system), lo_(value_lo) {
  if (!(value_hi > value_lo)) {
    throw std::invalid_argument("RuleIndex: value_hi must exceed value_lo");
  }
  if (buckets == 0) throw std::invalid_argument("RuleIndex: buckets must be > 0");
  width_ = (value_hi - value_lo) / static_cast<double>(buckets);
  bucket_rules_.resize(buckets);

  const auto& rules = system.rules();

  // Pick the most selective dimension: smallest mean normalised interval
  // width (wildcard = full range) over the rule set.
  const std::size_t dims = rules.empty() ? 0 : rules.front().window();
  const double range = value_hi - value_lo;
  double best_mean_width = 2.0;  // normalised widths are <= ~1
  for (std::size_t d = 0; d < dims; ++d) {
    double total = 0.0;
    std::size_t counted = 0;
    for (const Rule& rule : rules) {
      if (rule.window() != dims) continue;
      const auto& gene = rule.genes()[d];
      total += gene.is_wildcard() ? 1.0 : std::min(1.0, gene.width() / range);
      ++counted;
    }
    if (counted == 0) continue;
    const double mean_width = total / static_cast<double>(counted);
    if (mean_width < best_mean_width) {
      best_mean_width = mean_width;
      dimension_ = d;
    }
  }

  for (std::size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].window() <= dimension_) continue;
    const auto& gene = rules[r].genes()[dimension_];
    std::size_t first_bucket = 0;
    std::size_t last_bucket = buckets - 1;
    if (!gene.is_wildcard()) {
      first_bucket = bucket_of(gene.lo());
      last_bucket = bucket_of(gene.hi());
    }
    for (std::size_t b = first_bucket; b <= last_bucket; ++b) {
      bucket_rules_[b].push_back(r);
    }
  }
}

std::size_t RuleIndex::bucket_of(double value) const {
  if (!(value > lo_)) return 0;  // below range, or NaN
  // Clamp before the cast: a served window may carry any finite double, and
  // converting an out-of-range quotient to size_t is undefined behaviour.
  const double last = static_cast<double>(bucket_rules_.size() - 1);
  return static_cast<std::size_t>(std::min((value - lo_) / width_, last));
}

std::span<const std::size_t> RuleIndex::candidates(double value_at_dimension) const {
  return bucket_rules_[bucket_of(value_at_dimension)];
}

core::Prediction RuleIndex::forecast(std::span<const double> window, Aggregation how) const {
  core::Prediction out;
  if (window.size() <= dimension_) return out;
  std::vector<Vote> votes;
  const auto& rules = system_.rules();
  for (const std::size_t r : candidates(window[dimension_])) {
    const Rule& rule = rules[r];
    if (!rule.predicting() || !rule.matches(window)) continue;
    votes.push_back(Vote{rule.forecast(window), rule.fitness(), rule.predicting()->error()});
  }
  out.votes = votes.size();
  const auto value = aggregate_votes(votes, how);
  out.abstained = !value.has_value();
  if (value) {
    out.value = *value;
    out.bound = vote_bound(votes, *value);
  }
  return out;
}

std::size_t RuleIndex::vote_count(std::span<const double> window) const {
  if (window.size() <= dimension_) return 0;
  std::size_t count = 0;
  const auto& rules = system_.rules();
  for (const std::size_t r : candidates(window[dimension_])) {
    if (rules[r].matches(window)) ++count;
  }
  return count;
}

double RuleIndex::mean_candidates() const {
  if (bucket_rules_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& bucket : bucket_rules_) total += bucket.size();
  return static_cast<double>(total) / static_cast<double>(bucket_rules_.size());
}

}  // namespace ef::core
