// End-to-end determinism: the whole pipeline — generator → dataset →
// multi-execution training → forecasting → serialisation — must be
// bit-reproducible from the seeds, including across thread-pool sizes and
// whether or not tracing is armed. That the result is the paper's algorithm
// is test_oracle.cpp's check (Oracle.*).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/rule_system.hpp"
#include "obs/timeline.hpp"
#include "series/mackey_glass.hpp"
#include "series/sunspot.hpp"
#include "series/venice.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::core::RuleSystemConfig;
using ef::core::WindowDataset;

RuleSystemConfig small_config() {
  RuleSystemConfig cfg;
  cfg.evolution.population_size = 20;
  cfg.evolution.generations = 400;
  cfg.evolution.emax = 0.15;
  cfg.evolution.seed = 71;
  cfg.max_executions = 2;
  cfg.coverage_target_percent = 100.0;
  return cfg;
}

TEST(Determinism, GeneratorsAreSeedStable) {
  // Two independent constructions of each experiment must agree exactly.
  const auto mg1 = ef::series::make_paper_mackey_glass();
  const auto mg2 = ef::series::make_paper_mackey_glass();
  for (std::size_t i = 0; i < mg1.train.size(); i += 17) {
    ASSERT_DOUBLE_EQ(mg1.train[i], mg2.train[i]);
  }
  const auto v1 = ef::series::make_paper_venice(2000, 500);
  const auto v2 = ef::series::make_paper_venice(2000, 500);
  for (std::size_t i = 0; i < v1.validation.size(); i += 13) {
    ASSERT_DOUBLE_EQ(v1.validation[i], v2.validation[i]);
  }
  const auto s1 = ef::series::make_paper_sunspots();
  const auto s2 = ef::series::make_paper_sunspots();
  for (std::size_t i = 0; i < s1.train.size(); i += 41) {
    ASSERT_DOUBLE_EQ(s1.train[i], s2.train[i]);
  }
}

TEST(Determinism, FullPipelineSerialisationIsByteStable) {
  const auto mg = ef::series::make_paper_mackey_glass();
  const WindowDataset train(mg.train, 4, 1);

  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    const auto result = ef::core::train(train, {.config = small_config()});
    std::ostringstream buffer;
    result.system.save(buffer);
    *out = buffer.str();
  }
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

/// Train/test splits the cross-configuration tests run on: Mackey-Glass at
/// D=4, and a Venice slice at the paper's D=24, where the packed regression
/// kernel runs its 4-row unroll across several vector-width chunks.
struct Split {
  const char* name;
  WindowDataset train;
  WindowDataset test;
};

std::vector<Split> splits() {
  const auto mg = ef::series::make_paper_mackey_glass();
  const auto venice = ef::series::make_paper_venice(2000, 500);
  std::vector<Split> out;
  out.push_back(
      {"mackey_glass_d4", WindowDataset(mg.train, 4, 1), WindowDataset(mg.test, 4, 1)});
  out.push_back({"venice_d24", WindowDataset(venice.train, 24, 1),
                 WindowDataset(venice.validation, 24, 1)});
  return out;
}

TEST(Determinism, IndependentOfThreadPoolSize) {
  // The parallel match engine must not change results with worker count.
  ef::util::ThreadPool one(1);
  ef::util::ThreadPool four(4);

  for (const Split& split : splits()) {
    SCOPED_TRACE(split.name);
    const auto a = ef::core::train(split.train, {.config = small_config(), .pool = &one});
    const auto b = ef::core::train(split.train, {.config = small_config(), .pool = &four});

    ASSERT_EQ(a.system.size(), b.system.size());
    const auto fa = a.system.forecast_dataset(split.test, &one);
    const auto fb = b.system.forecast_dataset(split.test, &four);
    for (std::size_t i = 0; i < fa.size(); ++i) {
      ASSERT_EQ(fa[i].has_value(), fb[i].has_value()) << i;
      if (fa[i]) {
        ASSERT_DOUBLE_EQ(*fa[i], *fb[i]) << i;
      }
    }
  }
}

TEST(Determinism, IndependentOfArmedTracing) {
  // Spans only read the clock and write their own sinks: a run traced at
  // rate 1.0 (every span of every execution lands in the rings) must give
  // the same rule system and forecasts, byte for byte, as a disarmed run,
  // on both training schedules. Under EVOFORECAST_OBS=OFF tracing cannot
  // arm and the comparison holds trivially.
  const auto mg = ef::series::make_paper_mackey_glass();
  const WindowDataset train(mg.train, 4, 1);
  const WindowDataset test(mg.test, 4, 1);
  ef::util::ThreadPool pool(4);

  for (const auto parallelism :
       {ef::core::TrainParallelism::kSequential, ef::core::TrainParallelism::kIslands}) {
    std::vector<std::string> serialised;
    std::vector<std::string> forecasts;
    for (const double rate : {0.0, 1.0}) {
      ef::obs::Timeline::set_sample_rate(rate);
      const auto result = ef::core::train(
          train, {.config = small_config(), .pool = &pool, .parallelism = parallelism});
      std::ostringstream buffer;
      result.system.save(buffer);
      serialised.push_back(buffer.str());
      std::ostringstream predicted;
      predicted.precision(17);
      for (const auto& value : result.system.forecast_dataset(test, &pool)) {
        if (value) {
          predicted << *value << '\n';
        } else {
          predicted << "abstain\n";
        }
      }
      forecasts.push_back(predicted.str());
    }
    ef::obs::Timeline::set_sample_rate(0.0);
    ASSERT_EQ(serialised.size(), 2u);
    EXPECT_FALSE(serialised[0].empty());
    EXPECT_EQ(serialised[0], serialised[1]);
    EXPECT_EQ(forecasts[0], forecasts[1]);
  }
#if EVOFORECAST_OBS_ENABLED
  // The armed runs really traced: their spans are in the rings.
  EXPECT_FALSE(ef::obs::Timeline::snapshot().spans.empty());
#endif
}

TEST(Determinism, SeedChangesResults) {
  // Sanity check that the determinism above isn't vacuous: a different seed
  // must actually produce a different system.
  const auto mg = ef::series::make_paper_mackey_glass();
  const WindowDataset train(mg.train, 4, 1);

  auto cfg_a = small_config();
  auto cfg_b = small_config();
  cfg_b.evolution.seed = 72;
  const auto a = ef::core::train(train, {.config = cfg_a});
  const auto b = ef::core::train(train, {.config = cfg_b});

  std::ostringstream sa;
  std::ostringstream sb;
  a.system.save(sa);
  b.system.save(sb);
  EXPECT_NE(sa.str(), sb.str());
}

}  // namespace
