#include "obs/timeline.hpp"

#if EVOFORECAST_OBS_ENABLED

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string_view>
#include <thread>

namespace ef::obs {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kDefaultRingCapacity = 8192;
constexpr std::size_t kSlowTraceCapacity = 128;
/// Distinct span-name pointers per thread table (a power of two). Names past
/// it share one overflow entry.
constexpr std::size_t kAggregateSlots = 256;

/// One ring slot. Every field is an atomic so the seqlock read side is
/// data-race-free under TSan (fences are invisible to it); the writer is
/// always the ring-owning thread, so relaxed stores bracketed by the seq
/// release are enough. An odd `seq` marks a slot mid-write.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> span_id{0};
  std::atomic<std::uint64_t> parent_id{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::int64_t> t_start_us{0};
  std::atomic<std::int64_t> dur_us{0};
  std::atomic<const char*> arg_key{nullptr};
  std::atomic<double> arg_value{0.0};
  std::atomic<bool> sampled{false};
};

/// Fixed-capacity span ring. Allocated without throwing: it is created
/// inside a noexcept span exit, and a failed slot allocation leaves an empty
/// ring that records nothing.
struct Ring {
  explicit Ring(std::size_t wanted)
      : slots(new (std::nothrow) Slot[wanted]), capacity(slots ? wanted : 0) {}

  std::unique_ptr<Slot[]> slots;
  std::size_t capacity;
  std::atomic<std::uint64_t> head{0};
};

/// One span name's running totals, seqlock-published like a ring slot.
/// `name` is set once, by the owning thread, when the entry is claimed.
struct Aggregate {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::int64_t> total_ns{0};
  std::atomic<std::int64_t> self_ns{0};
  std::atomic<std::int64_t> min_ns{0};
  std::atomic<std::int64_t> max_ns{0};
};

/// Everything one thread writes: its aggregate table and (from its first
/// traced span on) its ring. Exactly one thread owns a state at a time; at
/// thread exit it goes to the free pool and the next new thread adopts it,
/// so the states stay snapshot-able and their count is bounded by the peak
/// number of live threads. States are never freed.
struct ThreadState {
  explicit ThreadState(std::uint32_t index, std::uint64_t reset_epoch)
      : epoch(reset_epoch), thread_index(index) {}

  /// Timeline::reset() generation these aggregates belong to. A stale table
  /// is skipped by readers and cleared by its owner on its next span exit,
  /// so the owner stays the only writer.
  std::atomic<std::uint64_t> epoch;
  Aggregate aggregates[kAggregateSlots];
  Aggregate overflow;
  std::atomic<Ring*> ring{nullptr};
  std::unique_ptr<Ring> ring_storage;
  std::uint32_t thread_index;
};

double env_double(const char* name, double fallback) {
  const char* text = std::getenv(name);
  if (!text || !*text) return fallback;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text) return fallback;
  return value;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  if (!text || !*text) return fallback;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || value == 0) return fallback;
  return static_cast<std::size_t>(std::min<unsigned long long>(value, kMaxRingCapacity));
}

struct State {
  std::atomic<bool> enabled{false};
  /// sample_rate mapped onto [0, 2^32]: a trace is head-sampled when a
  /// 32-bit uniform draw lands strictly below this threshold.
  std::atomic<std::uint64_t> sample_threshold{0};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::size_t> ring_capacity{kDefaultRingCapacity};
  std::atomic<std::uint64_t> reset_epoch{0};
  /// Origin of the timeline clock. Precedes every traced span's start: a
  /// traced span draws its id from this State before reading the clock.
  const Clock::time_point epoch = Clock::now();

  std::mutex mutex;  ///< guards threads / free_threads / slow / rate (cold paths)
  std::vector<std::unique_ptr<ThreadState>> threads;
  std::vector<ThreadState*> free_threads;  ///< states of exited threads
  std::deque<TimelineSnapshot::SlowTrace> slow;
  double rate = 0.0;

  State() {
    set_rate(env_double("EVOFORECAST_TRACE_SAMPLE", 0.0));
    ring_capacity.store(env_size("EVOFORECAST_TRACE_CAPACITY", kDefaultRingCapacity),
                        std::memory_order_relaxed);
  }

  void set_rate(double r) {
    if (!std::isfinite(r) || r < 0.0) r = 0.0;
    if (r > 1.0) r = 1.0;
    const std::lock_guard<std::mutex> lock(mutex);
    rate = r;
    sample_threshold.store(
        static_cast<std::uint64_t>(r * 4294967296.0 /* 2^32 */),
        std::memory_order_relaxed);
    enabled.store(r > 0.0, std::memory_order_relaxed);
  }

  /// Copies of the state pointers; their contents are read unlocked.
  std::vector<ThreadState*> all_threads() {
    const std::lock_guard<std::mutex> lock(mutex);
    std::vector<ThreadState*> out;
    out.reserve(threads.size());
    for (const auto& t : threads) out.push_back(t.get());
    return out;
  }
};

State& state() {
  static State* instance = new State();  // leaked: spans may close after main
  return *instance;
}

thread_local TraceContext t_context;
thread_local Span* t_current = nullptr;  ///< innermost open span on this thread
thread_local ThreadState* t_state = nullptr;
thread_local bool t_state_returned = false;

/// Hands the thread's state back to the free pool at thread exit.
struct StateReturn {
  ~StateReturn() {
    State& s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.free_threads.push_back(t_state);
    t_state = nullptr;
    t_state_returned = true;  // spans closed later in thread teardown are dropped
  }
};

/// This thread's state, adopted from the free pool or created on first use;
/// nullptr once the thread has returned it, or when memory ran out (span
/// exits are noexcept, so the span is dropped instead).
ThreadState* local_state() {
  if (t_state != nullptr) return t_state;
  if (t_state_returned) return nullptr;
  State& s = state();
  try {
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.free_threads.empty()) {
      t_state = s.free_threads.back();
      s.free_threads.pop_back();
    } else {
      s.threads.push_back(std::make_unique<ThreadState>(
          static_cast<std::uint32_t>(s.threads.size()),
          s.reset_epoch.load(std::memory_order_relaxed)));
      // Room for every state in the free pool: StateReturn never allocates.
      s.free_threads.reserve(s.threads.size());
      t_state = s.threads.back().get();
    }
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
  static thread_local StateReturn returner;
  (void)returner;
  return t_state;
}

void seq_begin(std::atomic<std::uint64_t>& seq, std::uint64_t value) {
  seq.store(value + 1, std::memory_order_relaxed);  // odd: mid-write
  std::atomic_thread_fence(std::memory_order_release);
}

void seq_end(std::atomic<std::uint64_t>& seq, std::uint64_t value) {
  seq.store(value + 2, std::memory_order_release);  // even: published
}

/// The table entry for `name`: open addressing on the name pointer. The
/// same literal text at two addresses gets two entries; readers merge by
/// text.
Aggregate& aggregate_for(ThreadState& st, const char* name) {
  const auto key = reinterpret_cast<std::uintptr_t>(name);
  std::size_t index = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 56);
  for (std::size_t probe = 0; probe < kAggregateSlots; ++probe) {
    Aggregate& entry = st.aggregates[(index + probe) % kAggregateSlots];
    const char* owner = entry.name.load(std::memory_order_relaxed);
    if (owner == name) return entry;
    if (owner == nullptr) {
      entry.name.store(name, std::memory_order_release);
      return entry;
    }
  }
  st.overflow.name.store("obs.span.overflow", std::memory_order_relaxed);
  return st.overflow;
}

void clear(Aggregate& entry) {
  const std::uint64_t seq = entry.seq.load(std::memory_order_relaxed);
  seq_begin(entry.seq, seq);
  entry.calls.store(0, std::memory_order_relaxed);
  entry.total_ns.store(0, std::memory_order_relaxed);
  entry.self_ns.store(0, std::memory_order_relaxed);
  entry.min_ns.store(0, std::memory_order_relaxed);
  entry.max_ns.store(0, std::memory_order_relaxed);
  seq_end(entry.seq, seq);
}

/// Aggregate sink: owner-only read-modify-write, so plain loads and stores.
void add_aggregate(ThreadState& st, const char* name, std::int64_t total_ns,
                   std::int64_t self_ns) {
  const std::uint64_t epoch = state().reset_epoch.load(std::memory_order_relaxed);
  if (st.epoch.load(std::memory_order_relaxed) != epoch) {
    for (Aggregate& entry : st.aggregates) clear(entry);
    clear(st.overflow);
    st.epoch.store(epoch, std::memory_order_release);
  }
  Aggregate& entry = aggregate_for(st, name);
  const std::uint64_t seq = entry.seq.load(std::memory_order_relaxed);
  const std::uint64_t calls = entry.calls.load(std::memory_order_relaxed);
  const std::int64_t min_ns = entry.min_ns.load(std::memory_order_relaxed);
  const std::int64_t max_ns = entry.max_ns.load(std::memory_order_relaxed);
  seq_begin(entry.seq, seq);
  entry.calls.store(calls + 1, std::memory_order_relaxed);
  entry.total_ns.store(entry.total_ns.load(std::memory_order_relaxed) + total_ns,
                       std::memory_order_relaxed);
  entry.self_ns.store(entry.self_ns.load(std::memory_order_relaxed) + self_ns,
                      std::memory_order_relaxed);
  if (calls == 0 || total_ns < min_ns) entry.min_ns.store(total_ns, std::memory_order_relaxed);
  if (calls == 0 || total_ns > max_ns) entry.max_ns.store(total_ns, std::memory_order_relaxed);
  seq_end(entry.seq, seq);
}

std::uint64_t next_id() {
  return state().next_id.fetch_add(1, std::memory_order_relaxed);
}

/// Cheap per-thread xorshift64* for the head-sample draw; seeded from the
/// global id counter so threads diverge.
std::uint32_t sample_draw() {
  thread_local std::uint64_t seed = 0;
  if (seed == 0) seed = 0x9e3779b97f4a7c15ull ^ (next_id() * 0xbf58476d1ce4e5b9ull);
  seed ^= seed >> 12;
  seed ^= seed << 25;
  seed ^= seed >> 27;
  return static_cast<std::uint32_t>((seed * 0x2545f4914f6cdd1dull) >> 32);
}

bool draw_sampled() {
  const std::uint64_t threshold =
      state().sample_threshold.load(std::memory_order_relaxed);
  if (threshold >= 4294967296ull) return true;  // rate == 1.0: skip the draw
  return sample_draw() < threshold;
}

/// µs on the timeline clock.
std::int64_t timeline_us(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - state().epoch).count();
}

/// Ring sink: the owner's ring, allocated at its first traced span.
void record(ThreadState& st, const TraceContext& ctx, std::uint64_t parent_id,
            const char* name, std::int64_t t_start_us, std::int64_t dur_us,
            const char* arg_key, double arg_value) {
  Ring* ring = st.ring.load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new (std::nothrow) Ring(state().ring_capacity.load(std::memory_order_relaxed));
    if (ring == nullptr) return;
    st.ring_storage.reset(ring);
    st.ring.store(ring, std::memory_order_release);
  }
  if (ring->capacity == 0) return;
  const std::uint64_t index =
      ring->head.fetch_add(1, std::memory_order_relaxed) % ring->capacity;
  Slot& slot = ring->slots[index];
  const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  seq_begin(slot.seq, seq);
  slot.trace_id.store(ctx.trace_id, std::memory_order_relaxed);
  slot.span_id.store(ctx.span_id, std::memory_order_relaxed);
  slot.parent_id.store(parent_id, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.t_start_us.store(t_start_us, std::memory_order_relaxed);
  slot.dur_us.store(dur_us, std::memory_order_relaxed);
  slot.arg_key.store(arg_key, std::memory_order_relaxed);
  slot.arg_value.store(arg_value, std::memory_order_relaxed);
  slot.sampled.store(ctx.sampled, std::memory_order_relaxed);
  seq_end(slot.seq, seq);
}

}  // namespace

bool Timeline::enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

void Timeline::set_sample_rate(double rate) { state().set_rate(rate); }

double Timeline::sample_rate() {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.rate;
}

void Timeline::set_ring_capacity(std::size_t spans) {
  state().ring_capacity.store(std::clamp<std::size_t>(spans, 1, kMaxRingCapacity),
                              std::memory_order_relaxed);
}

std::size_t Timeline::ring_capacity() {
  return state().ring_capacity.load(std::memory_order_relaxed);
}

void Timeline::mark_slow(std::uint64_t trace_id, double us) {
  if (trace_id == 0) return;
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.slow.push_back({trace_id, us});
  while (s.slow.size() > kSlowTraceCapacity) s.slow.pop_front();
}

TimelineSnapshot Timeline::snapshot() {
  State& s = state();
  TimelineSnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    snap.slow.assign(s.slow.begin(), s.slow.end());
  }
  for (const ThreadState* st : s.all_threads()) {
    const Ring* ring = st->ring.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::size_t capacity = ring->capacity;
    const std::uint64_t count = head < capacity ? head : capacity;
    for (std::uint64_t i = 0; i < count; ++i) {
      const Slot& slot = ring->slots[i % capacity];
      const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
      if (seq_before & 1) continue;  // mid-write
      TimelineSpan span;
      span.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      span.span_id = slot.span_id.load(std::memory_order_relaxed);
      span.parent_id = slot.parent_id.load(std::memory_order_relaxed);
      const char* name = slot.name.load(std::memory_order_relaxed);
      span.name = name ? name : "";
      span.t_start_us = slot.t_start_us.load(std::memory_order_relaxed);
      span.dur_us = slot.dur_us.load(std::memory_order_relaxed);
      span.arg_key = slot.arg_key.load(std::memory_order_relaxed);
      span.arg_value = slot.arg_value.load(std::memory_order_relaxed);
      span.sampled = slot.sampled.load(std::memory_order_relaxed);
      span.thread_index = st->thread_index;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
      if (span.trace_id == 0 || span.span_id == 0) continue;  // never written
      snap.spans.push_back(span);
    }
  }
  return snap;
}

std::vector<SpanAggregate> Timeline::aggregates() {
  State& s = state();
  const std::uint64_t epoch = s.reset_epoch.load(std::memory_order_acquire);
  std::map<std::string_view, SpanStats> merged;
  for (const ThreadState* st : s.all_threads()) {
    if (st->epoch.load(std::memory_order_acquire) != epoch) continue;  // reset since
    const auto read = [&merged](const Aggregate& entry) {
      const char* name = entry.name.load(std::memory_order_acquire);
      if (name == nullptr) return;
      std::uint64_t calls = 0;
      std::int64_t total = 0, self = 0, min = 0, max = 0;
      for (;;) {  // a writer holds an entry for a handful of stores
        const std::uint64_t seq = entry.seq.load(std::memory_order_acquire);
        calls = entry.calls.load(std::memory_order_relaxed);
        total = entry.total_ns.load(std::memory_order_relaxed);
        self = entry.self_ns.load(std::memory_order_relaxed);
        min = entry.min_ns.load(std::memory_order_relaxed);
        max = entry.max_ns.load(std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_acquire);
        if ((seq & 1) == 0 && entry.seq.load(std::memory_order_relaxed) == seq) break;
        std::this_thread::yield();  // the writer may be descheduled mid-entry
      }
      if (calls == 0) return;
      SpanStats& out = merged[name];
      out.min_ns = out.calls == 0 ? static_cast<double>(min)
                                  : std::min(out.min_ns, static_cast<double>(min));
      out.max_ns = std::max(out.max_ns, static_cast<double>(max));
      out.calls += calls;
      out.total_ns += static_cast<double>(total);
      out.self_ns += static_cast<double>(self);
    };
    for (const Aggregate& entry : st->aggregates) read(entry);
    read(st->overflow);
  }
  std::vector<SpanAggregate> out;
  out.reserve(merged.size());
  for (const auto& [name, stats] : merged) out.push_back({std::string(name), stats});
  return out;
}

void Timeline::reset() {
  State& s = state();
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.slow.clear();
  }
  s.reset_epoch.fetch_add(1, std::memory_order_acq_rel);
  for (ThreadState* st : s.all_threads()) {
    Ring* ring = st->ring.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t i = 0; i < ring->capacity; ++i) {
      Slot& slot = ring->slots[i];
      const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
      seq_begin(slot.seq, seq);
      slot.trace_id.store(0, std::memory_order_relaxed);
      slot.span_id.store(0, std::memory_order_relaxed);
      seq_end(slot.seq, seq);
    }
    ring->head.store(0, std::memory_order_release);
  }
}

TraceContext current_context() noexcept { return t_context; }

Span::Span(const char* name) noexcept : name_(name) { open(t_context, false); }

Span::Span(const char* name, RootTag) noexcept : name_(name) { open(t_context, true); }

Span::Span(const char* name, const TraceContext& parent) noexcept : name_(name) {
  open(parent, false);
}

void Span::open(const TraceContext& parent, bool root) noexcept {
  restore_ = t_context;
  enclosing_ = t_current;
  t_current = this;
  if (parent.active()) {
    context_ = {parent.trace_id, next_id(), parent.sampled};
    parent_id_ = parent.span_id;
  } else if (root && Timeline::enabled()) {
    context_ = {next_id(), next_id(), draw_sampled()};
  }
  t_context = context_;
  start_ = Clock::now();
}

Span::~Span() {
  const Clock::time_point end = Clock::now();
  const std::int64_t total_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count();
  t_current = enclosing_;
  if (enclosing_ != nullptr) enclosing_->child_ns_ += total_ns;
  t_context = restore_;
  ThreadState* st = local_state();
  if (st == nullptr) return;
  add_aggregate(*st, name_, total_ns, total_ns - child_ns_);
  if (context_.active()) {
    const std::int64_t start_us = timeline_us(start_);
    record(*st, context_, parent_id_, name_, start_us, timeline_us(end) - start_us, arg_key_,
           arg_value_);
  }
}

}  // namespace ef::obs

#endif  // EVOFORECAST_OBS_ENABLED
