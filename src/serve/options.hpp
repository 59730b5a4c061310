// serve/options.hpp — the one aggregate configuring the serving stack.
//
// Pre-redesign, efserve grew a flag per knob and plumbed each one through a
// different struct (ServiceConfig here, ServerConfig there, a Timeline call
// in main). ServeOptions replaces all of that: one aggregate covering the
// service pipeline (cache, quality ledger, limits, slow-request threshold, trace
// sampling) and the reactor transport (bind address, reactor threads,
// framing and pipelining limits). ForecastService consumes the service
// section; Reactor reads the transport section off the service it fronts —
// a single designated-initializer literal configures the whole stack:
//
//   ForecastService service(store, {.port = 7777, .reactor_threads = 4});
//   Reactor reactor(service);
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/quality.hpp"
#include "serve/window_cache.hpp"

namespace ef::serve {

struct ServeOptions {
  // --- service pipeline ---------------------------------------------------
  CacheConfig cache;       ///< prediction cache; capacity 0 = off
  QualityOptions quality;  ///< prediction ledger / accuracy / drift; ledger 0 = off
  std::size_t max_window = 4096;
  std::size_t max_horizon = 1024;
  /// Requests slower than this emit a serve.slow_request event and bump the
  /// serve.slow_requests counter; <= 0 disables the check.
  double slow_request_us = 50000.0;
  /// Timeline trace sample rate. >= 0 overrides the environment-configured
  /// rate at service construction; the default -1 leaves it untouched.
  double trace_sample = -1.0;

  // --- reactor transport --------------------------------------------------
  std::string host = "127.0.0.1";
  std::uint16_t port = 7777;      ///< 0 = pick an ephemeral port (tests)
  /// Reactor (event-loop) threads; 0 = automatic (min(hardware, 4)). Each
  /// reactor owns its connections outright — shared-nothing after accept.
  std::size_t reactor_threads = 0;
  int backlog = 128;
  std::size_t max_line_bytes = 1 << 20;  ///< oversize request lines are rejected
  /// Cap on answered-but-unwritten responses queued per connection. At the
  /// cap the reactor stops reading: further lines stay in the read buffer
  /// and the socket (natural backpressure) until the client reads enough
  /// for the queue to drain below it.
  std::size_t max_pipeline = 1024;
  /// Test hook: SO_SNDBUF for accepted sockets (0 = OS default). Tiny
  /// values force the partial-write/EPOLLOUT path deterministically.
  int sndbuf_bytes = 0;
  /// Graceful-drain budget: on stop(), connections get this long to finish
  /// in-flight pipelined requests and flush before being force-closed.
  int drain_timeout_ms = 5000;
};

}  // namespace ef::serve
