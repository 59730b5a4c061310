#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/rule_system.hpp"
#include "harness.hpp"

namespace ef::fuzz {
namespace {

bool same_double(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

bool same(const core::Prediction& a, const core::Prediction& b) {
  return a.abstained == b.abstained && a.votes == b.votes &&
         (a.abstained || (same_double(a.value, b.value) && same_double(a.bound, b.bound)));
}

/// The mean vote over a scalar match: every rule of the window's length whose
/// genes all hold their lag votes, in rule order.
core::Prediction scalar_vote(const core::RuleSystem& system, std::span<const double> window) {
  std::vector<core::Vote> votes;
  for (const core::Rule& rule : system.rules()) {
    bool match = rule.window() == window.size();
    for (std::size_t j = 0; match && j < window.size(); ++j) {
      match = rule.genes()[j].contains(window[j]);
    }
    if (match) votes.push_back(core::vote_of(rule, window));
  }
  core::Prediction out;
  out.votes = votes.size();
  out.abstained = votes.empty();
  if (!votes.empty()) {
    out.value = *core::aggregate_votes(votes, core::Aggregation::kMean);
    out.bound = core::vote_bound(votes, out.value);
  }
  return out;
}

}  // namespace

int efr_load(const std::uint8_t* data, std::size_t size) {
  std::istringstream in(std::string(reinterpret_cast<const char*>(data), size));
  core::RuleSystem system;
  try {
    system = core::RuleSystem::load(in);
  } catch (const std::runtime_error&) {
    return 0;  // the contract for hostile bytes: reject loudly, typed
  }

  // Accepted input must produce a fully serving-ready system: save/load
  // round-trips to the same rule count, and a forecast over an in-range
  // window neither crashes nor trips UB in the regression path.
  std::ostringstream saved;
  system.save(saved);
  std::istringstream reload(saved.str());
  core::RuleSystem again;
  try {
    again = core::RuleSystem::load(reload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "efr_load invariant violated: save output rejected: %s\n", e.what());
    std::abort();
  }
  if (again.size() != system.size()) {
    std::fprintf(stderr, "efr_load invariant violated: save/load changed rule count\n");
    std::abort();
  }
  // The compiled single-window path (what serving runs) must equal a scalar
  // vote, on the probe and on a probe with one lag far outside any gene
  // range.
  if (!system.empty()) {
    std::vector<double> window(system.rules().front().window(), 0.5);
    const core::RulePlanes planes = system.compile_planes(window.size());
    for (const double last : {0.5, 1e300, -1e300}) {
      window.back() = last;
      if (!same(system.forecast(planes, window), scalar_vote(system, window))) {
        std::fprintf(stderr,
                     "efr_load invariant violated: compiled forecast differs from the "
                     "scalar vote at last lag %g\n",
                     last);
        std::abort();
      }
    }
  }
  return 0;
}

}  // namespace ef::fuzz
