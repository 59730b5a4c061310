// obs/timeline.hpp — spans: one RAII type, two sinks.
//
// An obs::Span measures one dynamic extent: a match scan, a regression fit,
// one training execution, one served request. It reads the steady clock
// once on entry and once on exit, and its exit feeds two sinks:
//
//   * Aggregate sink (always on). Calls, total, self and min/max duration
//     per span name, in a table owned by the closing thread. Spans nest
//     through a thread-local stack, so self time is total minus the time
//     spent in child spans on the same thread — the number that says where
//     a run's wall clock went. Timeline::aggregates() merges every thread's
//     table by name; a thread's table returns to a free pool at thread exit,
//     so exited threads' totals survive. An exit takes no process-wide lock:
//     each table has a single writer and publishes through per-entry
//     seqlocks.
//   * Ring sink (only inside a trace). When a trace context is active on
//     the thread, the span also records {trace_id, span_id, parent_id, name,
//     t_start, dur, arg} into the thread's lock-free ring (seqlock slots,
//     single writer), exported on demand as Chrome trace-event JSON
//     (obs/timeline_export.hpp) loadable in Perfetto or chrome://tracing.
//     The tree survives a thread hop: hand current_context() to the worker
//     and open the worker's span with it as parent.
//
// Traces and sampling:
//   * A root span — Span(name, kRoot) — opens a new trace when tracing is
//     armed and none is active on the thread; inside an active trace it is
//     an ordinary child, so nested subsystems (serve → train) compose.
//     Armed or not is one relaxed atomic load.
//   * When armed (sample rate > 0), every span of every active trace is
//     recorded into the rings. The sample rate is a *head sample over
//     export*: each new trace draws once against the rate and carries the
//     verdict in its `sampled` flag; the exporter emits sampled traces only.
//   * Slow-request exemplars ride on that tail-capture: a request that
//     blows the slow threshold calls Timeline::mark_slow(trace_id), and the
//     exporter keeps that trace's full span tree even when the draw said
//     "not sampled", as long as its spans are still in the rings.
//
// Environment:
//   EVOFORECAST_TRACE_SAMPLE    fraction of traces exported (0..1; 0 = off,
//                               non-finite = off)
//   EVOFORECAST_TRACE_CAPACITY  spans per thread ring (default 8192, at most
//                               kMaxRingCapacity)
//
// Span names and arg keys must be string literals: both sinks store the
// pointers, not copies. Under -DEVOFORECAST_OBS=OFF every class here becomes
// an empty inline stub (zero instructions at call sites) and snapshots come
// back empty; callers need no #ifdefs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#ifndef EVOFORECAST_OBS_ENABLED
#define EVOFORECAST_OBS_ENABLED 1
#endif

namespace ef::obs {

/// Largest ring a thread may allocate (spans; ~80 bytes each). Larger
/// requested capacities are clamped to it.
inline constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 18;

/// One finished span, as read back out of a ring.
struct TimelineSpan {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root of its trace
  const char* name = "";
  std::int64_t t_start_us = 0;  ///< µs since the process timeline epoch
  std::int64_t dur_us = 0;
  const char* arg_key = nullptr;  ///< optional single numeric argument
  double arg_value = 0.0;
  std::uint32_t thread_index = 0;  ///< stable per-thread id (Perfetto "tid")
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

/// Aggregate of every closed span of one name.
struct SpanStats {
  std::uint64_t calls = 0;
  double total_ns = 0.0;  ///< sum of span durations
  double self_ns = 0.0;   ///< total minus time inside child spans
  double min_ns = 0.0;    ///< shortest call (0 when calls == 0)
  double max_ns = 0.0;    ///< longest call
  [[nodiscard]] double mean_ns() const noexcept {
    return calls == 0 ? 0.0 : total_ns / static_cast<double>(calls);
  }
};

struct SpanAggregate {
  std::string name;
  SpanStats stats;
};

/// The id triple a span carries. Copy it out of the owning thread with
/// current_context() and open the worker's span with it as parent.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< parent for spans opened under this context
  bool sampled = false;
  [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

/// Tag selecting the root-span constructor: Span(name, kRoot).
struct RootTag {
  explicit RootTag() = default;
};
inline constexpr RootTag kRoot{};

#if EVOFORECAST_OBS_ENABLED

/// Process-wide span state: the arming flag, the per-thread aggregate tables
/// and rings, the slow-exemplar list. All static — there is one timeline per
/// process, like the metrics registry.
class Timeline {
 public:
  /// One relaxed atomic load: is tracing armed?
  [[nodiscard]] static bool enabled() noexcept;

  /// rate <= 0 or non-finite disarms tracing; rate in (0,1] arms recording
  /// and head-samples that fraction of traces into the export set; larger
  /// finite rates mean 1.
  static void set_sample_rate(double rate);
  [[nodiscard]] static double sample_rate();

  /// Spans per thread ring, clamped to [1, kMaxRingCapacity]. Applies to
  /// rings allocated after the call (a thread allocates its ring at its
  /// first traced span).
  static void set_ring_capacity(std::size_t spans);
  [[nodiscard]] static std::size_t ring_capacity();

  /// Force-keep `trace_id` at export: the slow-request exemplar hook. The
  /// list is bounded (oldest exemplars drop first); `us` is carried into
  /// the exported trace for display.
  static void mark_slow(std::uint64_t trace_id, double us);

  /// Consistent-enough copy of every ring (seqlock read; slots mid-write or
  /// overtaken by the writer are skipped) plus the slow list.
  [[nodiscard]] static TimelineSnapshot snapshot();

  /// Every thread's aggregate table, live and exited, merged by span name
  /// and sorted by name.
  [[nodiscard]] static std::vector<SpanAggregate> aggregates();

  /// Drop all ring spans, slow exemplars and aggregates. Test/bench helper:
  /// callers should quiesce spanning threads first, or concurrent spans may
  /// be lost or half-counted (never UB — every shared field is atomic).
  static void reset();
};

/// This thread's live trace context (inactive when no trace is open here).
[[nodiscard]] TraceContext current_context() noexcept;

/// RAII span. Always feeds the aggregate sink; feeds the ring sink when it
/// belongs to a trace.
class Span {
 public:
  /// Child of this thread's current context (no trace when none is active).
  explicit Span(const char* name) noexcept;
  /// Root: opens a new trace when tracing is armed and none is active here;
  /// otherwise the same as Span(name).
  Span(const char* name, RootTag) noexcept;
  /// Child of `parent`, a context handed over from another thread (pool
  /// workers). Spans opened under this one on this thread join the same
  /// trace; the thread's own context is restored on exit.
  Span(const char* name, const TraceContext& parent) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach one numeric argument (literal key) shown in Perfetto.
  void set_arg(const char* key, double value) noexcept {
    arg_key_ = key;
    arg_value_ = value;
  }
  /// Context to hand across threads: children attach under this span.
  [[nodiscard]] TraceContext context() const noexcept { return context_; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return context_.trace_id; }
  /// Whether this span belongs to a trace (and so lands in the ring).
  [[nodiscard]] bool traced() const noexcept { return context_.active(); }

 private:
  void open(const TraceContext& parent, bool root) noexcept;

  const char* name_;
  const char* arg_key_ = nullptr;
  double arg_value_ = 0.0;
  std::int64_t child_ns_ = 0;  ///< filled in by exiting children on this thread
  Span* enclosing_ = nullptr;  ///< enclosing span on this thread
  TraceContext restore_;       ///< thread context to put back on exit
  TraceContext context_;       ///< this span's own context; inactive = not traced
  std::uint64_t parent_id_ = 0;
  std::chrono::steady_clock::time_point start_;
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
  [[nodiscard]] static std::vector<SpanAggregate> aggregates() { return {}; }
  static void reset() {}
};

[[nodiscard]] inline TraceContext current_context() noexcept { return {}; }

class Span {
 public:
  explicit Span(const char*) noexcept {}
  Span(const char*, RootTag) noexcept {}
  Span(const char*, const TraceContext&) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_arg(const char*, double) noexcept {}
  [[nodiscard]] TraceContext context() const noexcept { return {}; }
  [[nodiscard]] std::uint64_t trace_id() const noexcept { return 0; }
  [[nodiscard]] bool traced() const noexcept { return false; }
};

#endif  // EVOFORECAST_OBS_ENABLED

}  // namespace ef::obs
