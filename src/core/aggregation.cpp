#include "core/aggregation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ef::core {

std::optional<double> aggregate_votes(std::vector<Vote> votes, Aggregation how) {
  if (votes.empty()) return std::nullopt;

  switch (how) {
    case Aggregation::kMean: {
      double sum = 0.0;
      for (const Vote& v : votes) sum += v.value;
      return sum / static_cast<double>(votes.size());
    }
    case Aggregation::kFitnessWeighted: {
      // Negative-fitness (f_min) rules get zero weight; if every vote is
      // non-positive, fall back to the plain mean rather than dividing by 0.
      double weighted = 0.0;
      double total = 0.0;
      for (const Vote& v : votes) {
        const double w = std::max(v.fitness, 0.0);
        weighted += w * v.value;
        total += w;
      }
      if (total <= 0.0) return aggregate_votes(std::move(votes), Aggregation::kMean);
      return weighted / total;
    }
    case Aggregation::kMedian: {
      const std::size_t mid = votes.size() / 2;
      std::nth_element(votes.begin(), votes.begin() + static_cast<std::ptrdiff_t>(mid),
                       votes.end(),
                       [](const Vote& a, const Vote& b) { return a.value < b.value; });
      if (votes.size() % 2 == 1) return votes[mid].value;
      // Even count: average the two central order statistics.
      const double upper = votes[mid].value;
      double lower = votes[0].value;
      for (std::size_t i = 1; i < mid; ++i) lower = std::max(lower, votes[i].value);
      return 0.5 * (lower + upper);
    }
    case Aggregation::kBestRule: {
      const Vote* best = &votes.front();
      for (const Vote& v : votes) {
        if (v.fitness > best->fitness) best = &v;
      }
      return best->value;
    }
    case Aggregation::kInverseError: {
      constexpr double kEpsilon = 1e-9;
      double weighted = 0.0;
      double total = 0.0;
      for (const Vote& v : votes) {
        const double w = 1.0 / (v.error + kEpsilon);
        weighted += w * v.value;
        total += w;
      }
      return weighted / total;
    }
  }
  throw std::logic_error("aggregate_votes: unknown strategy");
}

double vote_bound(std::span<const Vote> votes, double value) {
  double bound = 0.0;
  for (const Vote& v : votes) {
    bound = std::max(bound, v.error + std::abs(v.value - value));
  }
  return bound;
}

Vote vote_of(const Rule& rule, std::span<const double> window) {
  return Vote{rule.forecast(window), rule.fitness(), rule.predicting()->error()};
}

}  // namespace ef::core
