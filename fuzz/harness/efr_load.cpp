#include <cmath>
#include <cstdio>
#include <cstdlib>
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
  // The compiled single-window path (what serving runs) must equal the
  // reference forecast, on the probe and on a probe with one lag far
  // outside any gene range.
  if (!system.empty()) {
    std::vector<double> window(system.rules().front().window(), 0.5);
    const core::RulePlanes planes = system.compile_planes(window.size());
    for (const double last : {0.5, 1e300, -1e300}) {
      window.back() = last;
      if (!same(system.forecast(planes, window), system.forecast(window))) {
        std::fprintf(stderr,
                     "efr_load invariant violated: compiled forecast differs from the "
                     "reference at last lag %g\n",
                     last);
        std::abort();
      }
    }
  }
  return 0;
}

}  // namespace ef::fuzz
