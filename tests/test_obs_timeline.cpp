// Tests for obs::Span's ring sink (obs/timeline.{hpp,cpp}) and
// obs/timeline_export.hpp: ring wraparound, parent/child nesting, context
// propagation across a real thread hop, head-sampling, slow-request
// exemplars, sample-rate and capacity validation, and the Chrome
// trace-event exporter. The aggregate sink is covered by test_obs_span.cpp.
//
// The file compiles (and its unguarded tests pass) under
// -DEVOFORECAST_OBS=OFF too — every span becomes an inline stub and
// snapshots come back empty — so assertions that need real recording sit
// behind #if EVOFORECAST_OBS_ENABLED.
//
// The timeline is process-wide with per-thread rings that are recycled
// through a free pool, so ordering matters: the wraparound test runs FIRST
// (gtest registers in file order) because it needs a freshly created ring
// at its small capacity — any thread spawned later may inherit that parked
// ring from the pool. Tests keep per-trace span counts at or below that
// small capacity and reset() between tests.
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeline_export.hpp"

namespace {

using ef::obs::kRoot;
using ef::obs::Span;
using ef::obs::Timeline;
using ef::obs::TimelineSnapshot;
using ef::obs::TimelineSpan;
using ef::obs::TraceContext;

[[maybe_unused]] std::vector<TimelineSpan> spans_of(const TimelineSnapshot& snap,
                                                    std::uint64_t trace_id) {
  std::vector<TimelineSpan> out;
  for (const TimelineSpan& span : snap.spans) {
    if (span.trace_id == trace_id) out.push_back(span);
  }
  return out;
}

#if EVOFORECAST_OBS_ENABLED

TEST(ObsTimeline, RingWrapsAroundKeepingNewestSpans) {
  Timeline::set_ring_capacity(4);
  EXPECT_EQ(Timeline::ring_capacity(), 4u);
  Timeline::set_sample_rate(1.0);
  Timeline::reset();

  std::uint64_t trace_id = 0;
  std::uint64_t last_span = 0;
  std::thread emitter([&] {
    const Span root("wrap.root", kRoot);
    trace_id = root.trace_id();
    for (int i = 0; i < 10; ++i) {
      const Span span("wrap.span");
      last_span = span.context().span_id;
    }
  });
  emitter.join();

  // 10 children + the root close went through a 4-slot ring: at most 4 spans
  // survive, the newest writes win, and the last-emitted span is among them.
  const auto spans = spans_of(Timeline::snapshot(), trace_id);
  ASSERT_GT(trace_id, 0u);
  EXPECT_EQ(spans.size(), 4u);
  bool saw_last = false;
  bool saw_root = false;
  for (const TimelineSpan& span : spans) {
    if (span.span_id == last_span) saw_last = true;
    if (std::string(span.name) == "wrap.root") saw_root = true;
  }
  EXPECT_TRUE(saw_last);
  EXPECT_TRUE(saw_root);  // the root closed last, so it cannot be overwritten

  Timeline::set_ring_capacity(8192);  // fresh rings after this test: default
}

TEST(ObsTimeline, NestedScopesRecordParentChildWithArgs) {
  Timeline::set_sample_rate(1.0);
  Timeline::reset();

  std::uint64_t trace_id = 0;
  {
    const Span root("nest.root", kRoot);
    EXPECT_TRUE(root.traced());
    trace_id = root.trace_id();
    Span child("nest.child");
    EXPECT_TRUE(child.traced());
    EXPECT_EQ(child.trace_id(), trace_id);
    child.set_arg("k", 7.0);
  }

  const auto spans = spans_of(Timeline::snapshot(), trace_id);
  ASSERT_EQ(spans.size(), 2u);
  const bool first_is_child = std::string(spans[0].name) == "nest.child";
  const TimelineSpan& child = first_is_child ? spans[0] : spans[1];
  const TimelineSpan& root = first_is_child ? spans[1] : spans[0];
  EXPECT_EQ(std::string(root.name), "nest.root");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_TRUE(root.sampled);  // rate 1.0: every trace draws in
  ASSERT_NE(child.arg_key, nullptr);
  EXPECT_EQ(std::string(child.arg_key), "k");
  EXPECT_DOUBLE_EQ(child.arg_value, 7.0);
}

TEST(ObsTimeline, ContextCrossesThreadHop) {
  Timeline::set_sample_rate(1.0);
  Timeline::reset();

  std::uint64_t trace_id = 0;
  std::uint64_t root_span = 0;
  {
    const Span root("hop.root", kRoot);
    trace_id = root.trace_id();
    const TraceContext ctx = root.context();
    root_span = ctx.span_id;
    // Pin this thread's ring before the worker runs: rings are recycled
    // through a free pool, so otherwise the worker's parked ring (same
    // thread_index) would be handed to this thread at root close.
    { const Span prelude("hop.prelude"); }
    std::thread worker([ctx] {
      {
        const Span span("hop.worker", ctx);
        EXPECT_TRUE(span.traced());
        EXPECT_EQ(ef::obs::current_context().trace_id, ctx.trace_id);
      }
      EXPECT_FALSE(ef::obs::current_context().active());  // worker's own context back
    });
    worker.join();
    EXPECT_EQ(ef::obs::current_context().span_id, root_span);
  }

  const auto spans = spans_of(Timeline::snapshot(), trace_id);
  ASSERT_EQ(spans.size(), 3u);
  const TimelineSpan* worker = nullptr;
  const TimelineSpan* root = nullptr;
  for (const TimelineSpan& span : spans) {
    if (std::string(span.name) == "hop.worker") worker = &span;
    if (std::string(span.name) == "hop.root") root = &span;
  }
  ASSERT_NE(worker, nullptr);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(worker->trace_id, root->trace_id);  // one trace across both threads
  EXPECT_EQ(worker->parent_id, root_span);      // child of the handed-over span
  EXPECT_NE(worker->thread_index, root->thread_index);
}

TEST(ObsTimeline, HandedOverContextBecomesParentAndIsRestored) {
  Timeline::set_sample_rate(1.0);
  Timeline::reset();

  const TraceContext ctx{4242, 17, true};
  std::uint64_t id = 0;
  {
    Span span("handed.span", ctx);
    span.set_arg("batch", 3.0);
    id = span.context().span_id;
    { const Span nested("handed.nested"); }
  }
  EXPECT_FALSE(ef::obs::current_context().active());

  const auto spans = spans_of(Timeline::snapshot(), 4242);
  ASSERT_EQ(spans.size(), 2u);
  const bool first_is_span = std::string(spans[0].name) == "handed.span";
  const TimelineSpan& span = first_is_span ? spans[0] : spans[1];
  const TimelineSpan& nested = first_is_span ? spans[1] : spans[0];
  EXPECT_EQ(span.span_id, id);
  EXPECT_EQ(span.parent_id, 17u);
  EXPECT_EQ(nested.parent_id, id);
  EXPECT_GE(span.dur_us, nested.dur_us);
  ASSERT_NE(span.arg_key, nullptr);
  EXPECT_EQ(std::string(span.arg_key), "batch");
}

TEST(ObsTimeline, ExporterKeepsSampledAndSlowDropsRest) {
  Timeline::set_sample_rate(1.0);
  Timeline::reset();

  { const Span span("exp.sampled", TraceContext{1001, 0, true}); }
  { const Span span("exp.unsampled", TraceContext{1002, 0, false}); }

  std::string json = ef::obs::chrome_trace_json();
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("exp.sampled"), std::string::npos);
  EXPECT_EQ(json.find("exp.unsampled"), std::string::npos)
      << "head-sample verdict must gate export";

  // A slow exemplar rescues the unsampled trace: full span tree plus a
  // serve.slow_request instant marker carrying the tripping latency.
  Timeline::mark_slow(1002, 123.5);
  json = ef::obs::chrome_trace_json();
  EXPECT_NE(json.find("exp.unsampled"), std::string::npos);
  EXPECT_NE(json.find("slow_us"), std::string::npos);
  EXPECT_NE(json.find("serve.slow_request"), std::string::npos);
}

TEST(ObsTimeline, HeadSamplingDrawsBothWays) {
  Timeline::set_sample_rate(0.5);
  EXPECT_DOUBLE_EQ(Timeline::sample_rate(), 0.5);
  Timeline::reset();

  int sampled = 0;
  for (int i = 0; i < 256; ++i) {
    const Span t("draw.root", kRoot);
    sampled += t.context().sampled ? 1 : 0;
  }
  // P(all 256 draws agree) = 2^-255: a failure here is a broken RNG or a
  // threshold mapped to 0/1, not bad luck.
  EXPECT_GT(sampled, 0);
  EXPECT_LT(sampled, 256);
}

#endif  // EVOFORECAST_OBS_ENABLED

// The remaining tests run identically with real recording disarmed (rate 0)
// and with the OBS=OFF stubs: every entry point must be callable and inert.

TEST(ObsTimeline, DisarmedScopesAreInactiveAndRecordNothing) {
  Timeline::set_sample_rate(0.0);
  Timeline::reset();
  EXPECT_FALSE(Timeline::enabled());
  {
    const Span root("off.root", kRoot);
    EXPECT_FALSE(root.traced());
    EXPECT_EQ(root.trace_id(), 0u);
    EXPECT_FALSE(root.context().active());
    EXPECT_FALSE(ef::obs::current_context().active());
    Span child("off.child");
    child.set_arg("k", 1.0);
    EXPECT_FALSE(child.traced());
  }
  EXPECT_TRUE(Timeline::snapshot().spans.empty());
}

TEST(ObsTimeline, InactiveContextEmitsNothing) {
  Timeline::set_sample_rate(0.0);
  Timeline::reset();
  const TraceContext none{};
  {
    const Span span("noop", none);
    EXPECT_FALSE(span.traced());
    EXPECT_FALSE(ef::obs::current_context().active());
  }
  Timeline::mark_slow(0, 1.0);  // trace id 0 is "no trace": ignored
  const TimelineSnapshot snap = Timeline::snapshot();
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.slow.empty());
}

TEST(ObsTimeline, NonFiniteSampleRateDisarms) {
  for (const double rate : {std::nan(""), std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), -1.0}) {
    Timeline::set_sample_rate(0.5);
    Timeline::set_sample_rate(rate);
    EXPECT_FALSE(Timeline::enabled()) << rate;
    EXPECT_EQ(Timeline::sample_rate(), 0.0) << rate;
    const Span root("nan.root", kRoot);
    EXPECT_FALSE(root.traced()) << rate;
  }
}

#if EVOFORECAST_OBS_ENABLED

// Run by ctest in a fresh process, where this thread's first traced span
// allocates its ring at the clamped capacity.
TEST(ObsTimeline, OversizedRingCapacityIsClamped) {
  Timeline::set_ring_capacity(std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(Timeline::ring_capacity(), ef::obs::kMaxRingCapacity);
  Timeline::set_ring_capacity(0);
  EXPECT_EQ(Timeline::ring_capacity(), 1u);
  Timeline::set_ring_capacity(std::numeric_limits<std::size_t>::max());
  Timeline::set_sample_rate(1.0);
  Timeline::reset();
  std::uint64_t trace_id = 0;
  {
    const Span root("huge.root", kRoot);
    trace_id = root.trace_id();
  }
  EXPECT_EQ(spans_of(Timeline::snapshot(), trace_id).size(), 1u);
  Timeline::set_ring_capacity(8192);
  Timeline::set_sample_rate(0.0);
}

#endif  // EVOFORECAST_OBS_ENABLED

}  // namespace
