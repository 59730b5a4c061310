// Event log: ring bounds, JSON-line shape (validated with the serve JSON
// parser), file sink, and the macro bridge that feeds the flight recorder
// from training and serving code.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/match_backend.hpp"
#include "core/rule_system.hpp"
#include "obs/events.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "series/synthetic.hpp"
#include "serve/model_store.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace {

using ef::obs::Event;
using ef::obs::EventField;
using ef::obs::EventLog;

ef::json::Object parse_line(const std::string& line) {
  std::string error;
  const auto doc = ef::json::parse(line, error);
  EXPECT_TRUE(doc.has_value()) << "not JSON: " << line << " (" << error << ")";
  const auto* object = doc ? doc->as_object() : nullptr;
  EXPECT_NE(object, nullptr) << line;
  return object ? *object : ef::json::Object{};
}

/// Kinds present in the global log, in emission order. Unreferenced when
/// the macro-bridge tests are skipped (EVOFORECAST_OBS=OFF).
[[maybe_unused]] std::vector<std::string> global_kinds() {
  std::vector<std::string> out;
  for (const Event& e : EventLog::global().recent()) out.push_back(e.kind);
  return out;
}

[[maybe_unused]] bool has_kind(const std::vector<std::string>& kinds, std::string_view kind) {
  for (const auto& k : kinds) {
    if (k == kind) return true;
  }
  return false;
}

TEST(EventLog, EmitsSequencedTimestampedJson) {
  EventLog log(16);
  log.emit("unit.test", {{"answer", 42}, {"ratio", 0.5}, {"on", true}, {"who", "efstat"}});
  log.emit("unit.test2");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.total_emitted(), 2u);

  const auto events = log.recent();
  EXPECT_EQ(events[0].seq + 1, events[1].seq);
  EXPECT_LE(events[0].ts_ms, events[1].ts_ms);

  const auto object = parse_line(events[0].to_json());
  ASSERT_TRUE(object.count("kind"));
  EXPECT_EQ(*object.at("kind").as_string(), "unit.test");
  EXPECT_EQ(*object.at("answer").as_number(), 42.0);
  EXPECT_EQ(*object.at("ratio").as_number(), 0.5);
  EXPECT_EQ(*object.at("on").as_bool(), true);
  EXPECT_EQ(*object.at("who").as_string(), "efstat");
}

TEST(EventLog, RingDropsOldestAndCounts) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) log.emit("e", {{"i", i}});
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.total_emitted(), 10u);
  const auto events = log.recent();
  EXPECT_EQ(*parse_line(events.front().to_json()).at("i").as_number(), 6.0);
  EXPECT_EQ(*parse_line(events.back().to_json()).at("i").as_number(), 9.0);
}

TEST(EventLog, DumpJsonLinesAllParse) {
  EventLog log(8);
  log.emit("a", {{"x", 1}});
  log.emit("b", {{"quote", "say \"hi\"\n"}});
  const std::string dump = log.dump_json_lines();
  std::istringstream in(dump);
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    parse_line(line);
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST(EventLog, FileSinkStreamsEvents) {
  const auto path = std::filesystem::temp_directory_path() / "ef_events_test.jsonl";
  std::filesystem::remove(path);
  {
    EventLog log(8);
    ASSERT_TRUE(log.set_file_sink(path.string()));
    EXPECT_TRUE(log.has_file_sink());
    log.emit("sink.test", {{"n", 7}});
    log.emit("sink.test", {{"n", 8}});
    ASSERT_TRUE(log.set_file_sink(""));  // close
    EXPECT_FALSE(log.has_file_sink());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    const auto object = parse_line(line);
    EXPECT_EQ(*object.at("kind").as_string(), "sink.test");
    ++count;
  }
  EXPECT_EQ(count, 2u);
  std::filesystem::remove(path);
}

TEST(EventLog, ThreadSafeUnderConcurrentEmit) {
  EventLog log(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < 100; ++i) log.emit("thread", {{"t", t}, {"i", i}});
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(log.total_emitted(), 400u);
  EXPECT_EQ(log.size(), 64u);
}

// --- macro bridge: the kinds the flight recorder promises to carry --------

TEST(EventBridge, TrainingEmitsGenerationAndExecutionEvents) {
#if !EVOFORECAST_OBS_ENABLED
  GTEST_SKIP() << "events compiled out (EVOFORECAST_OBS=OFF)";
#else
  const auto series = ef::series::generate_sine(220, {1.0, 25.0, 0.0, 0.0, 0.0, 7});
  const ef::core::WindowDataset data(series, 4, 1);
  ef::core::RuleSystemConfig config;
  config.evolution.population_size = 12;
  config.evolution.generations = 20;
  config.evolution.telemetry_stride = 10;
  config.evolution.seed = 5;
  config.max_executions = 1;
  const auto before = EventLog::global().total_emitted();
  (void)ef::core::train(data, {.config = config});
  ASSERT_GT(EventLog::global().total_emitted(), before);

  const auto kinds = global_kinds();
  EXPECT_TRUE(has_kind(kinds, "train.generation"));
  EXPECT_TRUE(has_kind(kinds, "train.execution"));
#endif
}

TEST(EventBridge, ModelLoadAndReloadFailureEmitEvents) {
#if !EVOFORECAST_OBS_ENABLED
  GTEST_SKIP() << "events compiled out (EVOFORECAST_OBS=OFF)";
#else
  const auto series = ef::series::generate_sine(220, {1.0, 25.0, 0.0, 0.0, 0.0, 7});
  const ef::core::WindowDataset data(series, 4, 1);
  ef::core::RuleSystemConfig config;
  config.evolution.population_size = 10;
  config.evolution.generations = 10;
  config.max_executions = 1;
  const auto trained = ef::core::train(data, {.config = config});

  const auto path = std::filesystem::temp_directory_path() / "ef_events_model.efr";
  {
    std::ofstream out(path);
    trained.system.save(out);
  }
  ef::serve::ModelStore store;
  store.add_file("m", path.string());
  EXPECT_TRUE(has_kind(global_kinds(), "serve.model.load"));

  // Corrupt the file and force a reload attempt: reload_failed event.
  const auto mtime = std::filesystem::last_write_time(path);
  {
    std::ofstream out(path);
    out << "this is not a rule system";
  }
  std::filesystem::last_write_time(path, mtime + std::chrono::seconds(2));
  store.poll_now();
  EXPECT_TRUE(has_kind(global_kinds(), "serve.model.reload_failed"));
  std::filesystem::remove(path);
#endif
}

TEST(EventBridge, SlowRequestThresholdEmitsEvent) {
#if !EVOFORECAST_OBS_ENABLED
  GTEST_SKIP() << "events compiled out (EVOFORECAST_OBS=OFF)";
#else
  const auto series = ef::series::generate_sine(220, {1.0, 25.0, 0.0, 0.0, 0.0, 7});
  const ef::core::WindowDataset data(series, 4, 1);
  ef::core::RuleSystemConfig config;
  config.evolution.population_size = 10;
  config.evolution.generations = 10;
  config.max_executions = 1;
  const auto trained = ef::core::train(data, {.config = config});

  ef::serve::ModelStore store;
  store.add_system("m", trained.system);
  ef::serve::ServeOptions service_config;
  service_config.slow_request_us = 1e-3;  // everything is "slow"
  ef::serve::ForecastService service(store, service_config);

  ef::serve::PredictRequest request;
  request.model = "m";
  request.window = {series[0], series[1], series[2], series[3]};
  (void)service.predict(request);
  EXPECT_TRUE(has_kind(global_kinds(), "serve.slow_request"));

  // Threshold 0 disables the event path (no crash, counter untouched).
  ef::serve::ServeOptions quiet = service_config;
  quiet.slow_request_us = 0.0;
  ef::serve::ForecastService quiet_service(store, quiet);
  (void)quiet_service.predict(request);
#endif
}

TEST(EventBridge, MatchBackendResolutionEmitsSelectionEvent) {
#if !EVOFORECAST_OBS_ENABLED
  GTEST_SKIP() << "events compiled out (EVOFORECAST_OBS=OFF)";
#else
  // The breadcrumb fires once per process. ctest runs each test in a process
  // of its own; in a whole-binary run an earlier test may have resolved the
  // backend already, which its counter shows.
  using ef::core::MatchBackend;
  auto& registry = ef::obs::Registry::global();
  const MatchBackend b = MatchBackend::kAuto;
  const std::string counter_name =
      std::string("match.backend.") + ef::core::to_string(b) + ".selected";
  if (registry.counter(counter_name).value() != 0) {
    GTEST_SKIP() << "the backend was resolved earlier in this process";
  }

  EXPECT_EQ(ef::core::resolve_match_backend(b), b);
  EXPECT_EQ(registry.counter(counter_name).value(), 1u);
  // Resolving again changes nothing: the breadcrumb is one-time.
  EXPECT_EQ(ef::core::resolve_match_backend(b), b);
  EXPECT_EQ(registry.counter(counter_name).value(), 1u);

  const Event* found = nullptr;
  const auto events = EventLog::global().recent();
  for (const Event& e : events) {
    if (e.kind != "match.backend_selected") continue;
    for (const EventField& field : e.fields) {
      if (field.key == "backend" && field.s == ef::core::to_string(b)) found = &e;
    }
  }
  ASSERT_NE(found, nullptr) << "no match.backend_selected event";
  bool has_avx2 = false;
  for (const EventField& field : found->fields) {
    if (field.key == "avx2_supported") {
      has_avx2 = true;
      EXPECT_EQ(field.kind, EventField::Kind::kBool);
      EXPECT_EQ(field.b, ef::core::cpu_supports_avx2());
    }
  }
  EXPECT_TRUE(has_avx2);
  const auto json = parse_line(found->to_json());
  EXPECT_TRUE(json.count("backend") == 1 && json.count("avx2_supported") == 1);
#endif
}

TEST(EventMacro, CompilesOutOrEmits) {
  const auto before = EventLog::global().total_emitted();
  EVOFORECAST_EVENT("macro.test", {"k", 1});
#if EVOFORECAST_OBS_ENABLED
  EXPECT_EQ(EventLog::global().total_emitted(), before + 1);
#else
  EXPECT_EQ(EventLog::global().total_emitted(), before);
#endif
}

}  // namespace
