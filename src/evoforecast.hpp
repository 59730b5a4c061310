// evoforecast.hpp — umbrella header for the evoforecast library.
//
// evoforecast reproduces "Time Series Forecasting by means of Evolutionary
// Algorithms" (Luque, Valls, Isasi — IPPS 2007): a Michigan-style classifier
// system evolving local prediction rules over sliding windows, with
// coverage-driven multi-execution training and abstaining prediction.
//
// Typical use:
//
//   #include "evoforecast.hpp"
//
//   const auto mg = ef::series::make_paper_mackey_glass();
//   const ef::core::WindowDataset train(mg.train, 4, 50, 6);
//   ef::core::RuleSystemConfig config;          // paper defaults
//   config.evolution.emax = 0.14;               // per-rule error budget
//   const auto result = ef::core::train(train, {.config = config});
//   const auto p = result.system.forecast(window);  // core::Prediction
//   if (!p.abstained) use(p.value, p.votes);
//
// Training schedules (sequential vs island-parallel) are one entry point:
// ef::core::train(data, options) — see TrainOptions. The match hot path
// (core/match_backend.hpp) runs one path whose SIMD width cpuid picks; every
// width produces the match sets of the paper's scalar interval test.
//
// Layering (each header is also individually includable):
//   obs/       metrics registry, spans, run reports
//   util/      seeded RNG, thread pool, running stats, CLI
//   series/    data containers, generators, metrics, transforms, analysis
//   core/      the paper's rule system + extensions (tuning, backtesting,
//              compaction, aggregation, multistep, indexing, alt engines)
//   baselines/ comparator models (MLP, Elman, RAN, MRAN, AR(MA), k-NN,
//              persistence, Holt-Winters)
//
// The serving layer (ef::serve — model store, window cache, TCP service)
// is deliberately NOT included here: it spawns threads and opens sockets
// that offline training/evaluation never needs. Opt in explicitly with
// #include "evoforecast_serve.hpp".
#pragma once

// obs
#include "obs/export.hpp"      // IWYU pragma: export
#include "obs/macros.hpp"      // IWYU pragma: export
#include "obs/metrics.hpp"     // IWYU pragma: export
#include "obs/run_report.hpp"  // IWYU pragma: export
#include "obs/timeline.hpp"    // IWYU pragma: export

// util
#include "util/cli.hpp"            // IWYU pragma: export
#include "util/rng.hpp"            // IWYU pragma: export
#include "util/running_stats.hpp"  // IWYU pragma: export
#include "util/thread_pool.hpp"    // IWYU pragma: export

// series
#include "series/analysis.hpp"      // IWYU pragma: export
#include "series/csv.hpp"           // IWYU pragma: export
#include "series/lorenz.hpp"        // IWYU pragma: export
#include "series/mackey_glass.hpp"  // IWYU pragma: export
#include "series/metrics.hpp"       // IWYU pragma: export
#include "series/significance.hpp"  // IWYU pragma: export
#include "series/sunspot.hpp"       // IWYU pragma: export
#include "series/synthetic.hpp"     // IWYU pragma: export
#include "series/timeseries.hpp"    // IWYU pragma: export
#include "series/transforms.hpp"    // IWYU pragma: export
#include "series/venice.hpp"        // IWYU pragma: export

// core
#include "core/aggregation.hpp"   // IWYU pragma: export
#include "core/backtest.hpp"      // IWYU pragma: export
#include "core/compaction.hpp"    // IWYU pragma: export
#include "core/config.hpp"        // IWYU pragma: export
#include "core/crossover.hpp"     // IWYU pragma: export
#include "core/crowding.hpp"      // IWYU pragma: export
#include "core/dataset.hpp"       // IWYU pragma: export
#include "core/evolution.hpp"     // IWYU pragma: export
#include "core/fitness.hpp"       // IWYU pragma: export
#include "core/generational.hpp"  // IWYU pragma: export
#include "core/init.hpp"          // IWYU pragma: export
#include "core/interval.hpp"      // IWYU pragma: export
#include "core/introspection.hpp" // IWYU pragma: export
#include "core/match_backend.hpp" // IWYU pragma: export
#include "core/match_engine.hpp"  // IWYU pragma: export
#include "core/multistep.hpp"     // IWYU pragma: export
#include "core/mutation.hpp"      // IWYU pragma: export
#include "core/pittsburgh.hpp"    // IWYU pragma: export
#include "core/prediction.hpp"    // IWYU pragma: export
#include "core/regression.hpp"    // IWYU pragma: export
#include "core/rule.hpp"          // IWYU pragma: export
#include "core/rule_system.hpp"   // IWYU pragma: export
#include "core/selection.hpp"     // IWYU pragma: export
#include "core/telemetry.hpp"     // IWYU pragma: export
#include "core/tuning.hpp"        // IWYU pragma: export

// baselines
#include "baselines/ar.hpp"            // IWYU pragma: export
#include "baselines/arma.hpp"          // IWYU pragma: export
#include "baselines/elman.hpp"         // IWYU pragma: export
#include "baselines/forecaster.hpp"    // IWYU pragma: export
#include "baselines/holt_winters.hpp"  // IWYU pragma: export
#include "baselines/knn.hpp"           // IWYU pragma: export
#include "baselines/linalg.hpp"        // IWYU pragma: export
#include "baselines/mlp.hpp"           // IWYU pragma: export
#include "baselines/mran.hpp"          // IWYU pragma: export
#include "baselines/persistence.hpp"   // IWYU pragma: export
#include "baselines/ran.hpp"           // IWYU pragma: export
