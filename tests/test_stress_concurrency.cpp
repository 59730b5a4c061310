// Race-stress suite for the concurrent serving stack, written for TSan.
//
// Each test hammers one component from many threads at once — exactly the
// interleavings production traffic produces and unit tests don't: model
// hot-reload under live predictions, sharded cache churn with eviction,
// event-log append against snapshot, windowed-collector sampling against
// queries, span aggregates and rings against snapshot/export/reset, and
// overlapping parallel_for rounds on one shared pool.
//
// The assertions are deliberately coarse (values sane, counts add up); the
// real oracle is the sanitizer. Run with -DEVOFORECAST_SANITIZE=thread and
// any data race fails the test hard. Iteration budgets shrink under
// sanitizer builds (EVOFORECAST_SANITIZED) so the instrumented runs stay
// inside the per-test ctest TIMEOUT; the interleavings, not the volume, are
// what find races. ctest label: "stress".
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/timeline_export.hpp"
#include "obs/window.hpp"
#include "serve/model_store.hpp"
#include "serve/reactor.hpp"
#include "serve/service.hpp"
#include "serve/window_cache.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace {

using namespace std::chrono_literals;

#if defined(EVOFORECAST_SANITIZED)
constexpr std::size_t kIterScale = 1;  // sanitizers add the rigour; keep wall-clock down
#else
constexpr std::size_t kIterScale = 4;
#endif

/// One-rule system predicting `value` on windows inside [0,1]^2.
ef::core::RuleSystem constant_system(double value) {
  ef::core::Rule rule({ef::core::Interval(0.0, 1.0), ef::core::Interval(0.0, 1.0)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {0.0, 0.0, value};
  part.fit.mean_prediction = value;
  part.fit.max_abs_residual = 0.01;
  part.matches = 4;
  part.fitness = 2.0;
  rule.set_predicting(part);
  ef::core::RuleSystem system;
  system.add_rules({rule}, false, -1.0);
  return system;
}

std::vector<std::thread> spawn(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(body, i);
  return threads;
}

void join_all(std::vector<std::thread>& threads) {
  for (std::thread& t : threads) t.join();
}

TEST(StressConcurrency, ModelStoreReloadUnderPredict) {
  const auto path = std::filesystem::temp_directory_path() / "stress_reload.efr";
  {
    std::ofstream out(path);
    constant_system(1.0).save(out);
  }
  ef::serve::ModelStore store;
  store.add_file("m", path.string());
  store.start_polling(1ms);  // background poller races the explicit poll_now below

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> predictions{0};
  const std::vector<double> window{0.5, 0.5};

  auto readers = spawn(4, [&](std::size_t) {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto model = store.get("m");
      ASSERT_NE(model, nullptr);
      const ef::core::Prediction p = model->forecast(window);
      ASSERT_FALSE(p.abstained);
      // Whatever snapshot this thread grabbed, its value is one a writer
      // actually published.
      ASSERT_GE(p.value, 1.0);
      ASSERT_LE(p.value, 64.0);
      predictions.fetch_add(1, std::memory_order_relaxed);
    }
  });
  auto pollers = spawn(2, [&](std::size_t) {
    while (!stop.load(std::memory_order_relaxed)) store.poll_now();
  });

  for (std::size_t round = 2; round < 2 + 16 * kIterScale; ++round) {
    {
      std::ofstream out(path);
      constant_system(static_cast<double>(round % 63 + 1)).save(out);
    }
    // Force an mtime the pollers cannot miss, regardless of fs granularity.
    std::filesystem::last_write_time(
        path, std::filesystem::last_write_time(path) + std::chrono::seconds(round));
    std::this_thread::sleep_for(2ms);
  }

  stop.store(true);
  join_all(readers);
  join_all(pollers);
  store.stop_polling();
  EXPECT_GT(predictions.load(), 0u);
  EXPECT_GE(store.get("m")->version(), 2u);
  std::filesystem::remove(path);
}

TEST(StressConcurrency, WindowCacheChurnWithEviction) {
  ef::serve::CacheConfig config;
  config.capacity = 128;  // small: eviction on nearly every insert
  ef::serve::WindowCache cache(config);

  constexpr std::size_t kThreads = 8;
  const std::size_t ops = 2000 * kIterScale;
  std::atomic<bool> stop{false};

  auto workers = spawn(kThreads, [&](std::size_t t) {
    for (std::size_t i = 0; i < ops; ++i) {
      const double v = static_cast<double>((t * 131 + i) % 512);
      const std::vector<double> window{v, v + 1.0};
      const auto key =
          cache.make_key(/*model_tag=*/7, /*horizon=*/1, ef::core::Aggregation::kMean, window);
      if (const auto hit = cache.get(key)) {
        // A hit must return exactly what some thread inserted for this key.
        ASSERT_FALSE(hit->abstain);
        ASSERT_DOUBLE_EQ(hit->value, v * 2.0);
      } else {
        cache.put(key, ef::serve::WindowCache::Value{false, v * 2.0, 1});
      }
    }
  });
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)cache.stats();
      std::this_thread::sleep_for(1ms);
    }
    cache.clear();
  });

  join_all(workers);
  stop.store(true);
  churn.join();

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);  // churn thread cleared after the workers stopped
  EXPECT_EQ(stats.hits + stats.misses, kThreads * ops);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(StressConcurrency, EventLogAppendAgainstSnapshot) {
  ef::obs::EventLog log(/*capacity=*/256);

  constexpr std::size_t kWriters = 6;
  const std::size_t per_writer = 500 * kIterScale;
  std::atomic<bool> stop{false};

  auto writers = spawn(kWriters, [&](std::size_t t) {
    for (std::size_t i = 0; i < per_writer; ++i) {
      log.emit("stress.event", {{"writer", t}, {"i", i}, {"label", "x\ny\"z"}});
    }
  });
  auto readers = spawn(2, [&](std::size_t) {
    std::string parse_error;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto recent = log.recent();
      ASSERT_LE(recent.size(), log.capacity());
      std::uint64_t last_seq = 0;
      for (const auto& event : recent) {
        ASSERT_GT(event.seq, last_seq);  // ring stays in emission order
        last_seq = event.seq;
        ASSERT_TRUE(ef::json::parse(event.to_json(), parse_error))
            << parse_error << ": " << event.to_json();
      }
      (void)log.dump_json_lines();
      (void)log.size();
    }
  });

  join_all(writers);
  stop.store(true);
  join_all(readers);

  EXPECT_EQ(log.total_emitted(), kWriters * per_writer);
  EXPECT_EQ(log.size(), std::min<std::size_t>(log.capacity(), kWriters * per_writer));
  EXPECT_EQ(log.dropped(), kWriters * per_writer - log.size());
}

TEST(StressConcurrency, WindowedCollectorSampleAgainstQuery) {
  ef::obs::Registry registry;
  ef::obs::WindowedCollector::Config config;
  config.bucket = 2ms;
  config.buckets = 8;
  ef::obs::WindowedCollector collector(registry, config);
  collector.start();  // real background sampler racing the queries below

  std::atomic<bool> stop{false};
  auto writers = spawn(4, [&](std::size_t t) {
    auto& counter = registry.counter("stress.count");
    auto& histogram = registry.histogram("stress.lat_us");
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      counter.add(1);
      histogram.observe(static_cast<double>((t * 37 + i++) % 1000));
    }
  });
  auto queriers = spawn(2, [&](std::size_t) {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = collector.window();
      ASSERT_GE(snap.window_seconds, 0.0);
      for (const auto& c : snap.counters) ASSERT_GE(c.per_sec, 0.0);
      for (const auto& h : snap.histograms) {
        ASSERT_LE(h.p50, h.p99 + 1e-9);
        ASSERT_TRUE(std::isfinite(h.p99));
      }
      (void)collector.counter_rate("stress.count");
      (void)collector.histogram_window("stress.lat_us");
      collector.tick();  // explicit tick racing the sampler thread
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(100 * kIterScale));

  // Query while the writers are still running: the ring only covers
  // buckets*bucket (~16 ms) of history, so after the joins below every frame
  // would post-date the last increment and a zero delta would be correct.
  // The explicit-tick querier threads can shrink the window to microseconds,
  // so retry until a window catches an increment in flight.
  bool saw_rate = false;
  for (int attempt = 0; attempt < 200 && !saw_rate; ++attempt) {
    const auto rate = collector.counter_rate("stress.count");
    saw_rate = rate.has_value() && rate->delta > 0;
    if (!saw_rate) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_rate) << "no windowed increments observed while writers were live";

  stop.store(true);
  join_all(writers);
  join_all(queriers);
  collector.stop();

  // The cumulative registry counter (unlike the windowed view) never forgets.
  const auto snapshot = registry.snapshot();
  const auto it = std::find_if(snapshot.counters.begin(), snapshot.counters.end(),
                               [](const auto& c) { return c.name == "stress.count"; });
  ASSERT_NE(it, snapshot.counters.end());
  EXPECT_GT(it->value, 0u);
}

TEST(StressConcurrency, SpansAgainstSnapshot) {
  // Both span sinks under fire: 6 threads close span trees (a root, a child
  // with an arg, a span under a handed-over context) into their aggregate
  // tables and seqlock rings while 2 readers merge the aggregates, snapshot
  // and export the rings, and mark slow exemplars, and one thread
  // periodically reset()s everything mid-flight. TSan is the oracle; the
  // inline assertions check that torn reads never surface.
  ef::obs::Timeline::set_ring_capacity(256);
  ef::obs::Timeline::set_sample_rate(1.0);
  ef::obs::Timeline::reset();

  constexpr std::size_t kWriters = 6;
  const std::size_t per_writer = 400 * kIterScale;
  std::atomic<bool> stop{false};

  const auto write_spans = [](std::size_t t, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const ef::obs::Span root("stress.request", ef::obs::kRoot);
      {
        ef::obs::Span child("stress.child");
        child.set_arg("writer", static_cast<double>(t));
      }
      // The thread-hop pattern: a span opened under a handed-over context.
      const ef::obs::Span handed("stress.handed", root.context());
    }
  };
  auto writers = spawn(kWriters, [&](std::size_t t) { write_spans(t, per_writer); });
  auto readers = spawn(2, [&](std::size_t r) {
    std::string parse_error;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& span : ef::obs::Timeline::aggregates()) {
        ASSERT_GT(span.stats.calls, 0u) << span.name;
        ASSERT_LE(span.stats.self_ns, span.stats.total_ns) << span.name;
        ASSERT_LE(span.stats.min_ns, span.stats.max_ns) << span.name;
        ASSERT_LE(span.stats.max_ns, span.stats.total_ns) << span.name;
      }
      const auto snap = ef::obs::Timeline::snapshot();
      for (const auto& span : snap.spans) {
        ASSERT_NE(span.trace_id, 0u);  // reset/mid-write slots are skipped
        ASSERT_NE(span.span_id, 0u);
        ASSERT_NE(span.name, nullptr);
        ASSERT_GE(span.dur_us, 0);
        if (r == 0) ef::obs::Timeline::mark_slow(span.trace_id, 1.0);
      }
      const std::string json = ef::obs::chrome_trace_json();
      ASSERT_TRUE(ef::json::parse(json, parse_error)) << parse_error;
    }
  });
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ef::obs::Timeline::reset();
      std::this_thread::sleep_for(1ms);
    }
  });

  join_all(writers);
  stop.store(true);
  join_all(readers);
  resetter.join();

  // Quiet phase: with no reset in flight, every closed span is counted once
  // in the merged aggregates, whichever (possibly recycled) table took it.
  ef::obs::Timeline::reset();
  constexpr std::size_t kQuietSpans = 50;
  auto quiet = spawn(kWriters, [&](std::size_t t) { write_spans(t, kQuietSpans); });
  join_all(quiet);
#if EVOFORECAST_OBS_ENABLED
  const auto totals = ef::obs::Timeline::aggregates();
  for (const char* name : {"stress.request", "stress.child", "stress.handed"}) {
    const auto it = std::find_if(totals.begin(), totals.end(),
                                 [&](const auto& span) { return span.name == name; });
    ASSERT_NE(it, totals.end()) << name;
    EXPECT_EQ(it->stats.calls, kWriters * kQuietSpans) << name;
  }
#endif

  ef::obs::Timeline::set_sample_rate(0.0);
  ef::obs::Timeline::reset();
}

TEST(StressConcurrency, SharedThreadPoolOverlappingParallelFor) {
  ef::util::ThreadPool pool(4);
  constexpr std::size_t kCallers = 6;
  const std::size_t rounds = 30 * kIterScale;

  auto callers = spawn(kCallers, [&](std::size_t t) {
    for (std::size_t round = 0; round < rounds; ++round) {
      std::atomic<std::size_t> sum{0};
      const std::size_t n = 1000 + t * 17 + round;
      pool.parallel_for(
          0, n,
          [&](std::size_t begin, std::size_t end) {
            std::size_t local = 0;
            for (std::size_t i = begin; i < end; ++i) local += i;
            sum.fetch_add(local, std::memory_order_relaxed);
          },
          /*grain=*/64);
      ASSERT_EQ(sum.load(), n * (n - 1) / 2);
    }
  });
  join_all(callers);
}


#if defined(__linux__)

/// Blocking loopback connect; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(StressConcurrency, ReactorPipelinedClientsAgainstHotReload) {
  // Many client threads pipelining bursts over short-lived connections while
  // the model hot-reloads underneath: TSan watches the acceptor fd handoff
  // between shards and inline predicts racing the reload. Finally stop()
  // lands with traffic still arriving — the drain must not race it.
  ef::serve::ModelStore store;
  store.add_system("m", constant_system(3.0));
  ef::serve::ServeOptions options;
  options.port = 0;
  options.cache.capacity = 0;  // every request exercises the live model
  options.reactor_threads = 2;
  ef::serve::ForecastService service(store, options);
  ef::serve::Reactor reactor(service);
  reactor.start();
  const std::uint16_t port = reactor.port();

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPipeline = 16;
  const std::size_t bursts = 15 * kIterScale;
  std::atomic<std::size_t> failures{0};
  std::atomic<bool> stop{false};

  auto clients = spawn(kClients, [&](std::size_t) {
    for (std::size_t round = 0; round < bursts && !stop.load(std::memory_order_relaxed);
         ++round) {
      const int fd = connect_loopback(port);
      if (fd < 0) {
        ++failures;
        continue;
      }
      std::string burst;
      for (std::size_t i = 0; i < kPipeline; ++i) {
        burst += "{\"model\":\"m\",\"window\":[0.5,0.5],\"id\":" + std::to_string(i) + "}\n";
      }
      bool ok = true;
      for (std::size_t sent = 0; sent < burst.size();) {
        const auto n = ::send(fd, burst.data() + sent, burst.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
          ok = false;
          break;
        }
        sent += static_cast<std::size_t>(n);
      }
      std::size_t newlines = 0;
      char chunk[2048];
      while (ok && newlines < kPipeline) {
        const auto n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        for (ssize_t i = 0; i < n; ++i) {
          if (chunk[i] == '\n') ++newlines;
        }
      }
      if (!ok || newlines != kPipeline) ++failures;
      ::close(fd);
    }
  });

  for (std::size_t swap = 0; swap < 10 * kIterScale; ++swap) {
    store.add_system("m", constant_system(static_cast<double>(swap % 7 + 1)));
    std::this_thread::sleep_for(2ms);
  }
  join_all(clients);

  // Stop with one final pipelined connection mid-flight so the drain path
  // races real traffic.
  const int fd = connect_loopback(port);
  if (fd >= 0) {
    const char* line = "{\"model\":\"m\",\"window\":[0.5,0.5]}\n";
    (void)::send(fd, line, std::strlen(line), MSG_NOSIGNAL);
  }
  reactor.stop();
  if (fd >= 0) ::close(fd);
  service.shutdown();
  EXPECT_EQ(failures.load(), 0u);
}

#endif  // defined(__linux__)


TEST(StressConcurrency, QualityObserveAgainstPredictAndReload) {
  // The quality loop's three writers at once: predict threads recording
  // forecasts into per-model ledgers, observe threads maturing them (with
  // occasional explicit-tick jumps and stale duplicates), and the model
  // hot-reloading underneath — plus readers snapshotting and rendering the
  // labelled exposition. TSan watches the armed flag, the map-shape mutex
  // against the per-model locks, and the provider render against ingestion.
  const auto path = std::filesystem::temp_directory_path() / "stress_quality.efr";
  {
    std::ofstream out(path);
    constant_system(1.0).save(out);
  }
  ef::serve::ModelStore store;
  store.add_file("m", path.string());
  store.add_system("n", constant_system(2.0));

  ef::serve::ServeOptions options;
  options.quality.ledger_capacity = 64;  // small ring: constant wraparound
  options.quality.window = 32;
  options.quality.drift.lambda = 1.0;  // drift edges fire during the run too
  options.quality.drift.min_samples = 4;
  options.quality.drift.clear_after = 4;
  ef::serve::ForecastService service(store, options);
  ASSERT_NE(service.quality(), nullptr);
  service.quality()->observe("m", 1.0);  // arm before the threads race
  service.quality()->observe("n", 2.0);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> predictions{0};
  std::atomic<std::size_t> observations{0};

  auto predictors = spawn(3, [&](std::size_t i) {
    ef::serve::PredictRequest request;
    request.model = i % 2 == 0 ? "m" : "n";
    request.window = {0.5, 0.5};
    request.use_cache = false;  // every call takes the record_forecast path
    while (!stop.load(std::memory_order_relaxed)) {
      const auto response = service.predict(request);
      ASSERT_TRUE(response.ok);
      predictions.fetch_add(1, std::memory_order_relaxed);
    }
  });
  auto observers = spawn(2, [&](std::size_t i) {
    const char* model = i % 2 == 0 ? "m" : "n";
    std::size_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (round % 16 == 15) {
        // Duplicate/out-of-order actual: must be rejected as stale, never
        // matured twice.
        service.quality()->observe(model, 9.9, 1);
      } else {
        const double actual = round % 8 < 4 ? 1.0 : 6.0;  // drift churn
        service.quality()->observe(model, actual);
      }
      observations.fetch_add(1, std::memory_order_relaxed);
      ++round;
    }
  });
  auto readers = spawn(2, [&](std::size_t) {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto models = service.quality()->snapshot();
      ASSERT_LE(models.size(), 2u);
      for (const auto& m : models) {
        ASSERT_LE(m.window_n, 32u);
        ASSERT_LE(m.pending, 64u);
      }
      std::string out;
      service.quality()->render_prometheus(out, {});
      ASSERT_NE(out.find("ef_quality_armed 1"), std::string::npos);
    }
  });

  for (std::size_t round = 2; round < 2 + 8 * kIterScale; ++round) {
    {
      std::ofstream out(path);
      constant_system(static_cast<double>(round % 7 + 1)).save(out);
    }
    std::filesystem::last_write_time(
        path, std::filesystem::last_write_time(path) + std::chrono::seconds(round));
    store.poll_now();
    std::this_thread::sleep_for(2ms);
  }

  stop.store(true);
  join_all(predictors);
  join_all(observers);
  join_all(readers);
  EXPECT_GT(predictions.load(), 0u);
  EXPECT_GT(observations.load(), 0u);
  const auto models = service.quality()->snapshot();
  ASSERT_EQ(models.size(), 2u);
  // Ledger accounting stays consistent under the races: everything recorded
  // either matured, went overdue, was evicted, or is still pending.
  for (const auto& m : models) {
    EXPECT_GT(m.observed, 0u);
    EXPECT_LE(m.pending, 64u);
  }
  std::filesystem::remove(path);
}

}  // namespace
