// layers.hpp — the per-layer (--trace 1) replays every workload runs.
//
// A traced run does not repeat the end-to-end phases. It takes the
// workload's own data, models and requests (a Subject) and replays them
// through the library's public functions one layer at a time, single-
// threaded, with a span around each call:
//
//   core evolution  execution 0 of each (sampled) model rebuilt from the
//                   public operators — init, selection, crossover,
//                   mutation, match, regression, crowding — on one worker,
//                   and checked to give the workload's own execution 0
//   training        executions run vs used, single-worker execution times,
//                   coverage and dataset-forecast scans
//   forecast        LoadedModel::forecast (rule index), RuleSystem::forecast
//                   and forecast_batch on the same windows, checked equal
//   container       .efr v2 write / open / find / materialize, checked to
//                   round-trip RuleSystem::save text
//   serving         parse → store get → cache → predict → serialize on an
//                   in-process ForecastService, every reply checked against
//                   LoadedModel::forecast; quality observe writes; and the
//                   loopback round trip whose excess is the transport
//
// Every workload reports the same layer metrics, so a layer's cost can be
// compared across model shapes (four paper rows, thousands of small fleet
// models, one large served model).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dataset.hpp"
#include "core/rule_system.hpp"
#include "inputs.hpp"

namespace evobench {

struct Subject {
  struct Model {
    std::string id;
    const core::WindowDataset* train = nullptr;
    const core::WindowDataset* heldout = nullptr;
    core::RuleSystemConfig config;
    core::RuleSystem system;
    std::size_t executions_used = 0;
    std::size_t executions_run = 0;
  };
  /// One request of the serving replay. Every fifth one is followed by an
  /// observe write of its realized value, as in serve_fleet's traffic.
  struct Call {
    std::size_t model = 0;
    std::span<const double> window;
    double actual = 0.0;
  };

  std::vector<Model> models;
  std::vector<Call> calls;
  /// Wall time the workload took to train every model its own way.
  double train_wall_s = 0.0;
  /// Serve from a .efr v2 container (fleet workloads) rather than by name.
  bool container = false;
};

/// Run every layer replay on `subject` and report the per_layer metrics.
void trace_layers(const Subject& subject, const Options& options, Run& run, Tracer& tracer);

}  // namespace evobench
