// workloads.hpp — the five evobench workloads. Each generates its inputs
// from options.seed, sets up options.setups() times (setup_s is the
// median), then either measures its end-to-end metrics for about
// options.seconds (trace off) or replays its data through every layer
// (trace on, see layers.hpp). Correctness failures go to `run`.
#pragma once

#include <vector>

#include "common.hpp"
#include "inputs.hpp"

namespace evobench {

void train_paper(const Options& options, Run& run, Tracer& tracer);
void train_fleet(const Options& options, Run& run, Tracer& tracer);
void serve_compute(const Options& options, Run& run, Tracer& tracer);
void serve_cached(const Options& options, Run& run, Tracer& tracer);
void serve_fleet(const Options& options, Run& run, Tracer& tracer);

/// Run `build` options.setups() times; returns each set-up's seconds.
std::vector<double> set_up(const Options& options, const auto& build) {
  std::vector<double> seconds;
  for (int i = 0; i < options.setups(); ++i) {
    const Clock::time_point t0 = Clock::now();
    build();
    seconds.push_back(seconds_since(t0));
  }
  return seconds;
}

}  // namespace evobench
