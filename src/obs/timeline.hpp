// obs/timeline.hpp — request-scoped timeline tracing.
//
// The TraceRegistry (obs/trace.hpp) aggregates spans *per name*: it can say
// that serve.request_us p99 spiked, but not whether one concrete slow
// request burned its budget in model lookup, the cache, the match kernel,
// or the response path. The timeline layer keeps the individual spans:
// every traced request gets a trace id, every span records
// {trace_id, span_id, parent_id, name, t_start, dur, arg}, and the whole
// tree survives a thread hop because the TraceContext can travel with the
// work. Spans land in per-thread lock-free rings (seqlock
// slots, single writer per ring) and are exported on demand as Chrome
// trace-event JSON (obs/timeline_export.hpp) loadable in Perfetto or
// chrome://tracing.
//
// Cost model and sampling:
//   * Armed or not is one relaxed atomic load. With EVOFORECAST_TRACE_SAMPLE
//     unset/0 (the default), TraceScope construction checks that flag and
//     does NOTHING else — no clock read, no ring write, no id allocation.
//   * When armed (sample rate > 0), every span of every active trace is
//     recorded into the rings — a clock read plus ~10 relaxed stores into
//     the calling thread's own ring slot. The sample rate is a *head
//     sample over export*: each new trace draws once against the rate and
//     carries the verdict in its `sampled` flag; the exporter emits sampled
//     traces only.
//   * Slow-request exemplars ride on that tail-capture: a request that
//     blows the slow threshold calls Timeline::mark_slow(trace_id), and the
//     exporter keeps that trace's full span tree even when the draw said
//     "not sampled" — a histogram outlier always points at a concrete
//     timeline as long as its spans are still in the rings.
//
// Environment:
//   EVOFORECAST_TRACE_SAMPLE    fraction of traces exported (0..1; 0 = off)
//   EVOFORECAST_TRACE_CAPACITY  spans per thread ring (default 8192)
//
// Under -DEVOFORECAST_OBS=OFF every class here becomes an empty inline stub
// (zero instructions at call sites) and snapshots come back empty; callers
// need no #ifdefs.
#pragma once

#include <cstdint>
#include <vector>

#ifndef EVOFORECAST_OBS_ENABLED
#define EVOFORECAST_OBS_ENABLED 1
#endif

namespace ef::obs {

/// One finished span, as read back out of a ring. `name`/`arg_key` must be
/// string literals (the rings store the pointers, not copies).
struct TimelineSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  const char* name = "";
  std::int64_t t_start_us = 0;  ///< µs since the process timeline epoch
  std::int64_t dur_us = 0;
  const char* arg_key = nullptr;  ///< optional single numeric argument
  double arg_value = 0.0;
  std::uint32_t thread_index = 0;  ///< stable per-ring id (Perfetto "tid")
  bool sampled = false;            ///< trace drew into the head sample
};

/// Everything the rings currently hold, plus the slow-request exemplar list.
struct TimelineSnapshot {
  struct SlowTrace {
    std::uint64_t trace_id = 0;
    double us = 0.0;  ///< the latency that tripped the slow threshold
  };
  std::vector<TimelineSpan> spans;  ///< ring order per thread; unsorted
  std::vector<SlowTrace> slow;      ///< newest-last, bounded
};

/// The id triple a request carries across threads. Copy it out of the
/// owning thread with current_context(), hand it to the worker, and adopt
/// it there with ContextGuard — spans opened under the guard join the same
/// trace with the right parent.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< parent for spans opened under this context
  bool sampled = false;
  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

#if EVOFORECAST_OBS_ENABLED

/// Process-wide timeline state: the arming flag, the per-thread rings, the
/// slow-exemplar list. All static — there is one timeline per process, like
/// the metrics registry.
class Timeline {
 public:
  /// One relaxed atomic load; the entire hot-path cost when tracing is off.
  [[nodiscard]] static bool enabled() noexcept;

  /// rate <= 0 disarms tracing entirely; rate in (0,1] arms recording and
  /// head-samples that fraction of traces into the export set.
  static void set_sample_rate(double rate);
  [[nodiscard]] static double sample_rate();

  /// Spans per thread ring. Applies to rings created after the call (tests
  /// set this before spawning their emitting thread).
  static void set_ring_capacity(std::size_t spans);
  [[nodiscard]] static std::size_t ring_capacity();

  /// Force-keep `trace_id` at export: the slow-request exemplar hook. The
  /// list is bounded (oldest exemplars drop first); `us` is carried into
  /// the exported trace for display.
  static void mark_slow(std::uint64_t trace_id, double us);

  /// Consistent-enough copy of every ring (seqlock read; slots mid-write or
  /// overtaken by the writer are skipped) plus the slow list.
  [[nodiscard]] static TimelineSnapshot snapshot();

  /// Drop all recorded spans and slow exemplars. Test/bench helper: callers
  /// must quiesce emitting threads first, or concurrent emits may be lost
  /// (never UB — the slots are atomics).
  static void reset();

  /// µs on the timeline clock (steady, process-epoch relative).
  [[nodiscard]] static std::int64_t now_us() noexcept;

  /// Record one completed span under `ctx` with explicit timestamps — the
  /// retrospective form for work whose start is only known after the fact.
  /// parent_id 0 means "under ctx.span_id". Returns the new span id (0 when ctx is inactive).
  static std::uint64_t emit(const TraceContext& ctx, const char* name,
                            std::int64_t t_start_us, std::int64_t t_end_us,
                            std::uint64_t parent_id = 0, const char* arg_key = nullptr,
                            double arg_value = 0.0);
};

/// This thread's live context (inactive when no trace is open here).
[[nodiscard]] TraceContext current_context() noexcept;

/// RAII root: opens a new trace on this thread (drawing against the sample
/// rate), or — when a trace is already active here — a child span within
/// it, so nested subsystems (serve → train) compose instead of fighting
/// over the root. Does nothing when tracing is off and no trace is active.
class TraceScope {
 public:
  explicit TraceScope(const char* name) noexcept;
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Context to hand across threads: children attach under this span.
  [[nodiscard]] TraceContext context() const noexcept;
  [[nodiscard]] std::uint64_t trace_id() const noexcept;
  [[nodiscard]] bool active() const noexcept { return span_id_ != 0; }

 private:
  TraceContext prev_;
  const char* name_;
  std::int64_t t_start_us_ = 0;
  std::uint64_t span_id_ = 0;  ///< 0 = scope is inactive
};

/// RAII child span under this thread's current context; inactive (and
/// free) when no trace is open here.
class SpanScope {
 public:
  explicit SpanScope(const char* name) noexcept;
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Attach one numeric argument (literal key) shown in Perfetto.
  void set_arg(const char* key, double value) noexcept {
    arg_key_ = key;
    arg_value_ = value;
  }
  [[nodiscard]] bool active() const noexcept { return span_id_ != 0; }

 private:
  const char* name_;
  const char* arg_key_ = nullptr;
  double arg_value_ = 0.0;
  std::int64_t t_start_us_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
};

/// RAII adoption of a foreign context on this thread (pool workers).
/// Restores the previous context on destruction.
class ContextGuard {
 public:
  explicit ContextGuard(const TraceContext& ctx) noexcept;
  ~ContextGuard();

  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TraceContext prev_;
};

#else  // EVOFORECAST_OBS_ENABLED == 0: every entry point is an inline no-op.

class Timeline {
 public:
  [[nodiscard]] static bool enabled() noexcept { return false; }
  static void set_sample_rate(double) {}
  [[nodiscard]] static double sample_rate() { return 0.0; }
  static void set_ring_capacity(std::size_t) {}
  [[nodiscard]] static std::size_t ring_capacity() { return 0; }
  static void mark_slow(std::uint64_t, double) {}
  [[nodiscard]] static TimelineSnapshot snapshot() { return {}; }
  static void reset() {}
  [[nodiscard]] static std::int64_t now_us() noexcept { return 0; }
  static std::uint64_t emit(const TraceContext&, const char*, std::int64_t, std::int64_t,
                            std::uint64_t = 0, const char* = nullptr, double = 0.0) {
    return 0;
  }
};

[[nodiscard]] inline TraceContext current_context() noexcept { return {}; }

class TraceScope {
 public:
  explicit TraceScope(const char*) noexcept {}
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  [[nodiscard]] TraceContext context() const noexcept { return {}; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return 0; }
  [[nodiscard]] bool active() const noexcept { return false; }
};

class SpanScope {
 public:
  explicit SpanScope(const char*) noexcept {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_arg(const char*, double) noexcept {}
  [[nodiscard]] bool active() const noexcept { return false; }
};

class ContextGuard {
 public:
  explicit ContextGuard(const TraceContext&) noexcept {}
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;
};

#endif  // EVOFORECAST_OBS_ENABLED

}  // namespace ef::obs
