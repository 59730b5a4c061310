// expected_prediction.hpp — the Prediction a rule set owes one window,
// assembled from the paper oracle's voter list.
//
// The oracle decides which rules vote, in ascending rule order (the order
// every forecast aggregates in). Each voter contributes its hyperplane
// output, fitness and e_R, and core::aggregate_votes and core::vote_bound
// (checked on their own in test_aggregation) combine them. The differential
// tests compare every compiled forecast path with this, under each
// Aggregation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/aggregation.hpp"
#include "core/prediction.hpp"
#include "core/rule.hpp"
#include "oracle/paper_oracle.hpp"

namespace ef::oracle {

[[nodiscard]] inline core::Prediction expected_prediction(std::span<const core::Rule> rules,
                                                          std::span<const double> window,
                                                          core::Aggregation how) {
  std::vector<core::Vote> votes;
  for (const std::size_t r : voters(rules, window)) {
    const core::Rule& rule = rules[r];
    votes.push_back({rule.forecast(window), rule.fitness(), rule.predicting()->error()});
  }
  core::Prediction out;
  out.votes = votes.size();
  const auto value = core::aggregate_votes(votes, how);
  out.abstained = !value.has_value();
  if (value) {
    out.value = *value;
    out.bound = core::vote_bound(votes, *value);
  }
  return out;
}

}  // namespace ef::oracle
