// obs/macros.hpp — zero-cost-when-disabled instrumentation entry points.
//
// Hot paths record through these macros rather than calling the registry
// directly, for two reasons:
//   1. Compile-out: with -DEVOFORECAST_OBS=OFF (CMake option) every macro
//      expands to `((void)0)` — release benches measure literally the seed
//      code.
//   2. One-time registration: each enabled call site caches its instrument
//      in a function-local static reference, so the steady-state cost is a
//      pointer load plus one relaxed atomic op — no map lookup, no lock.
//
// Names must be string literals (static storage); see docs/OBSERVABILITY.md
// for the catalogue of names used across the library. Spans are not a macro:
// they are obs::Span (obs/timeline.hpp), whose OFF-mode stub is empty.
#pragma once

#include "obs/events.hpp"
#include "obs/metrics.hpp"

#ifndef EVOFORECAST_OBS_ENABLED
#define EVOFORECAST_OBS_ENABLED 1
#endif

#if EVOFORECAST_OBS_ENABLED

/// counter(name) += delta.
#define EVOFORECAST_COUNT(name, delta)                                              \
  do {                                                                              \
    static ::ef::obs::Counter& ef_obs_c = ::ef::obs::Registry::global().counter(name); \
    ef_obs_c.add(static_cast<std::uint64_t>(delta));                                \
  } while (0)

/// gauge(name) = value.
#define EVOFORECAST_GAUGE_SET(name, value)                                        \
  do {                                                                            \
    static ::ef::obs::Gauge& ef_obs_g = ::ef::obs::Registry::global().gauge(name); \
    ef_obs_g.set(static_cast<double>(value));                                     \
  } while (0)

/// histogram(name, default bounds) <- value.
#define EVOFORECAST_HISTOGRAM(name, value)                            \
  do {                                                                \
    static ::ef::obs::Histogram& ef_obs_h =                           \
        ::ef::obs::Registry::global().histogram(name);                \
    ef_obs_h.observe(static_cast<double>(value));                     \
  } while (0)

/// Structured event into the global flight recorder. Fields are EventField
/// initialisers: EVOFORECAST_EVENT("serve.model.reload", {"name", name},
/// {"version", v}) — or none at all. Events are rare (per generation / per
/// reload / per slow request), so this takes the EventLog mutex.
#define EVOFORECAST_EVENT(kind, ...) \
  ::ef::obs::EventLog::global().emit(kind, std::vector<::ef::obs::EventField>{__VA_ARGS__})

#else  // EVOFORECAST_OBS_ENABLED == 0: instrumentation compiles out.

#define EVOFORECAST_COUNT(name, delta) ((void)0)
#define EVOFORECAST_GAUGE_SET(name, value) ((void)0)
#define EVOFORECAST_HISTOGRAM(name, value) ((void)0)
#define EVOFORECAST_EVENT(kind, ...) ((void)0)

#endif  // EVOFORECAST_OBS_ENABLED
