// Tests for obs::Span's aggregate sink (obs/timeline.hpp): per-name calls,
// total/self/min/max time, nesting and self-time accounting, per-thread span
// stacks, tables of pool workers and exited threads in the snapshot, reset,
// and compile-out behaviour under -DEVOFORECAST_OBS=OFF. The ring sink is
// covered by test_obs_timeline.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/timeline.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::obs::Span;
using ef::obs::SpanStats;
using ef::obs::Timeline;

const SpanStats* find_span(const std::vector<ef::obs::SpanAggregate>& spans,
                           const char* name) {
  for (const auto& span : spans) {
    if (span.name == name) return &span.stats;
  }
  return nullptr;
}

void busy_wait_us(int us) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

#if EVOFORECAST_OBS_ENABLED

TEST(ObsSpan, RecordsOnExit) {
  Timeline::reset();
  {
    const Span span("span.test.single");
    busy_wait_us(200);
  }
  const auto spans = Timeline::aggregates();
  const auto* stats = find_span(spans, "span.test.single");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->calls, 1u);
  EXPECT_GE(stats->total_ns, 100e3);
  // No children ran, so self time equals total time.
  EXPECT_DOUBLE_EQ(stats->self_ns, stats->total_ns);
  EXPECT_DOUBLE_EQ(stats->min_ns, stats->total_ns);
  EXPECT_DOUBLE_EQ(stats->max_ns, stats->total_ns);
}

TEST(ObsSpan, NestedSelfTimeIsTotalMinusChildren) {
  Timeline::reset();
  {
    const Span outer("span.test.outer");
    busy_wait_us(300);
    {
      const Span inner("span.test.inner");
      busy_wait_us(300);
    }
    busy_wait_us(300);
  }
  const auto spans = Timeline::aggregates();
  const auto* outer = find_span(spans, "span.test.outer");
  const auto* inner = find_span(spans, "span.test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The parent's child accounting uses the same measured duration the child
  // records, so the identity is exact, not approximate.
  EXPECT_DOUBLE_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
  // Two 300 us busy waits bound outer's self time from below. (Don't compare
  // against inner->total_ns: preemption on a loaded machine inflates the
  // inner span's wall clock arbitrarily.)
  EXPECT_GE(outer->self_ns, 2 * 300e3);
  EXPECT_DOUBLE_EQ(inner->self_ns, inner->total_ns);
}

TEST(ObsSpan, StacksArePerThread) {
  Timeline::reset();
  {
    const Span outer("span.test.thread_outer");
    // A span opened on another thread must not become our child.
    std::thread worker([] {
      const Span other("span.test.thread_other");
      busy_wait_us(500);
    });
    worker.join();
  }
  const auto spans = Timeline::aggregates();
  const auto* outer = find_span(spans, "span.test.thread_outer");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(find_span(spans, "span.test.thread_other"), nullptr);
  // If the worker's span had nested under us, our self time would be roughly
  // total minus its 500 us; per-thread stacks keep self == total.
  EXPECT_DOUBLE_EQ(outer->self_ns, outer->total_ns);
}

TEST(ObsSpan, RepeatedCallsAccumulate) {
  Timeline::reset();
  for (int i = 0; i < 5; ++i) {
    const Span span("span.test.repeat");
    busy_wait_us(50 * (i + 1));
  }
  const auto spans = Timeline::aggregates();
  const auto* stats = find_span(spans, "span.test.repeat");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->calls, 5u);
  EXPECT_GT(stats->mean_ns(), 0.0);
  EXPECT_LE(stats->min_ns, stats->mean_ns());
  EXPECT_GE(stats->max_ns, stats->mean_ns());
  EXPECT_GE(stats->min_ns, 50e3);
  EXPECT_GE(stats->max_ns, 250e3);
}

TEST(ObsSpan, PoolWorkerAndExitedThreadTablesAreInTheSnapshot) {
  Timeline::reset();
  {
    ef::util::ThreadPool pool(4);
    pool.parallel_for(
        0, 64,
        [](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) const Span span("span.test.pool");
        },
        /*grain=*/1);
    // Workers are alive and idle: their tables are read without stopping them.
    const auto spans = Timeline::aggregates();
    const auto* live = find_span(spans, "span.test.pool");
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(live->calls, 64u);
  }
  std::thread exited([] {
    for (int i = 0; i < 10; ++i) const Span span("span.test.exited");
  });
  exited.join();

  // The pool's workers and the thread have all exited; their tables went
  // back to the free pool with their totals.
  const auto spans = Timeline::aggregates();
  const auto* pool = find_span(spans, "span.test.pool");
  const auto* gone = find_span(spans, "span.test.exited");
  ASSERT_NE(pool, nullptr);
  ASSERT_NE(gone, nullptr);
  EXPECT_EQ(pool->calls, 64u);
  EXPECT_EQ(gone->calls, 10u);
}

TEST(ObsSpan, RecycledTableKeepsItsPreviousThreadsTotals) {
  Timeline::reset();
  std::thread first([] {
    for (int i = 0; i < 3; ++i) const Span span("span.test.reuse");
  });
  first.join();
  // The next new thread adopts the parked table and adds to it.
  std::thread second([] {
    for (int i = 0; i < 2; ++i) const Span span("span.test.reuse");
  });
  second.join();
  const auto spans = Timeline::aggregates();
  const auto* stats = find_span(spans, "span.test.reuse");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->calls, 5u);
}

TEST(ObsSpan, ResetClearsParkedTablesToo) {
  Timeline::reset();
  std::thread before([] { const Span span("span.test.parked"); });
  before.join();
  ASSERT_NE(find_span(Timeline::aggregates(), "span.test.parked"), nullptr);

  Timeline::reset();
  EXPECT_EQ(find_span(Timeline::aggregates(), "span.test.parked"), nullptr);
  // A thread that adopts the parked table starts from zero.
  std::thread after([] { const Span span("span.test.parked"); });
  after.join();
  const auto spans = Timeline::aggregates();
  const auto* stats = find_span(spans, "span.test.parked");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->calls, 1u);
}

TEST(ObsSpan, RunReportCarriesTheAggregates) {
  Timeline::reset();
  { const Span span("span.test.report"); }
  const auto report = ef::obs::capture_run_report();
  const auto* stats = find_span(report.spans, "span.test.report");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->calls, 1u);
  const std::string json = ef::obs::to_json(report);
  EXPECT_NE(json.find("\"span.test.report\""), std::string::npos);
  for (const char* key : {"calls", "total_ms", "self_ms", "mean_us", "min_us", "max_us"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos) << key;
  }
}

#else  // !EVOFORECAST_OBS_ENABLED

TEST(ObsSpan, CompiledOutRecordsNothing) {
  Timeline::reset();
  {
    Span span("span.test.compiled_out");
    span.set_arg("k", 1.0);
    EXPECT_FALSE(span.traced());
    busy_wait_us(100);
  }
  EXPECT_TRUE(Timeline::aggregates().empty());
}

#endif  // EVOFORECAST_OBS_ENABLED

TEST(ObsSpan, ResetAllClearsSpans) {
  { const Span span("span.test.reset"); }
  ef::obs::reset_all();
  EXPECT_EQ(find_span(Timeline::aggregates(), "span.test.reset"), nullptr);
}

}  // namespace
