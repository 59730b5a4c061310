// Tests for serve/model_store.hpp: registration, versioning, mtime-driven
// hot-reload, corrupt-reload resilience, and RCU liveness (old snapshots
// stay valid while readers hold them, across concurrent reload traffic).
#include "serve/model_store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "core/rule_system.hpp"

namespace {

using ef::core::Interval;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::serve::LoadedModel;
using ef::serve::ModelStore;

/// One-rule system predicting the constant `value` on windows in [0,1]^2.
RuleSystem constant_system(double value) {
  Rule rule({Interval(0.0, 1.0), Interval(0.0, 1.0)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {0.0, 0.0, value};
  part.fit.mean_prediction = value;
  part.fit.max_abs_residual = 0.01;
  part.matches = 4;
  part.fitness = 2.0;
  rule.set_predicting(part);
  RuleSystem system;
  system.add_rules({rule}, false, -1.0);
  return system;
}

std::filesystem::path temp_model_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

void write_model(const std::filesystem::path& path, const RuleSystem& system) {
  std::ofstream out(path);
  ASSERT_TRUE(out.is_open());
  system.save(out);
}

/// Force an mtime the poller is guaranteed to see as changed, regardless of
/// filesystem timestamp granularity.
void bump_mtime(const std::filesystem::path& path) {
  const auto now = std::filesystem::last_write_time(path);
  std::filesystem::last_write_time(path, now + std::chrono::seconds(2));
}

TEST(ModelStore, AddSystemAndGet) {
  ModelStore store;
  store.add_system("a", constant_system(1.0));
  store.add_system("b", constant_system(2.0));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.names(), (std::vector<std::string>{"a", "b"}));

  const auto a = store.get("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name(), "a");
  EXPECT_EQ(a->version(), 1u);
  EXPECT_EQ(a->window(), 2u);
  EXPECT_EQ(store.get("missing"), nullptr);

  const std::vector<double> window{0.5, 0.5};
  const auto p = a->forecast(window);
  ASSERT_FALSE(p.abstained);
  EXPECT_DOUBLE_EQ(p.value, 1.0);
  EXPECT_EQ(p.votes, 1u);
}

TEST(ModelStore, ReplacingBumpsVersionAndTag) {
  ModelStore store;
  store.add_system("m", constant_system(1.0));
  const auto v1 = store.get("m");
  store.add_system("m", constant_system(5.0));
  const auto v2 = store.get("m");
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_NE(v1->tag(), v2->tag());
  // The old snapshot stays alive and keeps answering with the old model.
  EXPECT_DOUBLE_EQ(v1->forecast(std::vector<double>{0.5, 0.5}).value, 1.0);
  EXPECT_DOUBLE_EQ(v2->forecast(std::vector<double>{0.5, 0.5}).value, 5.0);
}

TEST(ModelStore, FileLoadAndHotReload) {
  const auto path = temp_model_path("efserve_test_reload.efr");
  write_model(path, constant_system(1.0));

  ModelStore store;
  store.add_file("m", path.string());
  const auto v1 = store.get("m");
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version(), 1u);

  // Unchanged file: poll is a no-op.
  EXPECT_EQ(store.poll_now(), 0u);
  EXPECT_EQ(store.get("m")->tag(), v1->tag());

  // Swap the on-disk model; the poller must pick it up and bump the version.
  write_model(path, constant_system(9.0));
  bump_mtime(path);
  EXPECT_EQ(store.poll_now(), 1u);
  const auto v2 = store.get("m");
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(v2->version(), 2u);
  EXPECT_DOUBLE_EQ(v2->forecast(std::vector<double>{0.5, 0.5}).value, 9.0);
  // The pre-reload snapshot held by an in-flight request is untouched.
  EXPECT_DOUBLE_EQ(v1->forecast(std::vector<double>{0.5, 0.5}).value, 1.0);

  std::filesystem::remove(path);
}

TEST(ModelStore, CorruptReloadKeepsServingOldVersion) {
  const auto path = temp_model_path("efserve_test_corrupt.efr");
  write_model(path, constant_system(3.0));

  ModelStore store;
  store.add_file("m", path.string());
  const auto before = store.get("m");

  {
    std::ofstream out(path);
    out << "evoforecast-rules v1\n999999999\ngarbage";
  }
  bump_mtime(path);
  EXPECT_EQ(store.poll_now(), 0u);  // reload failed...
  const auto after = store.get("m");
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->tag(), before->tag());  // ...old version still serving
  EXPECT_DOUBLE_EQ(after->forecast(std::vector<double>{0.5, 0.5}).value, 3.0);

  // And once the file is healthy again, reload succeeds.
  write_model(path, constant_system(4.0));
  bump_mtime(path);
  EXPECT_EQ(store.poll_now(), 1u);
  EXPECT_DOUBLE_EQ(store.get("m")->forecast(std::vector<double>{0.5, 0.5}).value, 4.0);

  std::filesystem::remove(path);
}

TEST(ModelStore, BackgroundPollerReloads) {
  const auto path = temp_model_path("efserve_test_poller.efr");
  write_model(path, constant_system(1.0));

  ModelStore store;
  store.add_file("m", path.string());
  store.start_polling(std::chrono::milliseconds(20));

  write_model(path, constant_system(2.0));
  bump_mtime(path);
  // The poller should observe the change within a few intervals.
  bool reloaded = false;
  for (int i = 0; i < 200 && !reloaded; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reloaded = store.get("m")->version() == 2;
  }
  store.stop_polling();
  EXPECT_TRUE(reloaded);

  std::filesystem::remove(path);
}

TEST(ModelStore, ConcurrentReadersDuringReloads) {
  // Readers hammer get()+predict while the writer hot-swaps versions; every
  // answer must come from a coherent snapshot (value matches that snapshot's
  // version), with zero failures.
  const auto path = temp_model_path("efserve_test_concurrent.efr");
  write_model(path, constant_system(1.0));

  ModelStore store;
  store.add_file("m", path.string());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  const std::vector<double> window{0.5, 0.5};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto model = store.get("m");
        if (!model) {
          ++failures;
          continue;
        }
        const auto p = model->forecast(window);
        // Version k serves the constant k.
        if (p.abstained || p.value != static_cast<double>(model->version())) ++failures;
        ++reads;
      }
    });
  }

  for (double v = 2.0; v <= 6.0; v += 1.0) {
    write_model(path, constant_system(v));
    bump_mtime(path);
    ASSERT_EQ(store.poll_now(), 1u);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop = true;
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.get("m")->version(), 6u);

  std::filesystem::remove(path);
}

TEST(LoadedModelFactory, EmptySystemAbstains) {
  const auto model = LoadedModel::make(RuleSystem{}, "empty", 1, 1);
  EXPECT_EQ(model->window(), 0u);
  const auto p = model->forecast(std::vector<double>{0.1});
  EXPECT_TRUE(p.abstained);
  EXPECT_EQ(p.votes, 0u);
}

}  // namespace
