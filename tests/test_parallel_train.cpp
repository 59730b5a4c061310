// Tests for train() scheduling (sequential vs islands vs auto) and the
// uncertainty bound RuleSystem::forecast reports: exact equivalence between
// schedules, telemetry rules, the deprecated entry points, and empirical
// calibration of the bound.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rule_system.hpp"
#include "series/mackey_glass.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using ef::core::RuleSystemConfig;
using ef::core::TrainOptions;
using ef::core::TrainParallelism;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

TimeSeries noisy_sine(std::size_t n) {
  ef::util::Rng rng(55);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(static_cast<double>(i) * 0.2) + rng.normal(0.0, 0.03);
  }
  return TimeSeries(std::move(v));
}

RuleSystemConfig config_with(std::size_t executions, double coverage_target) {
  RuleSystemConfig cfg;
  cfg.evolution.population_size = 15;
  cfg.evolution.generations = 250;
  cfg.evolution.emax = 0.3;
  cfg.evolution.seed = 9;
  cfg.max_executions = executions;
  cfg.coverage_target_percent = coverage_target;
  return cfg;
}

void expect_same_result(const ef::core::TrainResult& a, const ef::core::TrainResult& b) {
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_DOUBLE_EQ(a.train_coverage_percent, b.train_coverage_percent);
  ASSERT_EQ(a.coverage_per_execution.size(), b.coverage_per_execution.size());
  for (std::size_t i = 0; i < a.coverage_per_execution.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.coverage_per_execution[i], b.coverage_per_execution[i]);
  }
  ASSERT_EQ(a.system.size(), b.system.size());
  for (std::size_t r = 0; r < a.system.size(); ++r) {
    const auto& ra = a.system.rules()[r];
    const auto& rb = b.system.rules()[r];
    ASSERT_EQ(ra.window(), rb.window());
    for (std::size_t j = 0; j < ra.window(); ++j) EXPECT_EQ(ra.genes()[j], rb.genes()[j]);
    EXPECT_DOUBLE_EQ(ra.fitness(), rb.fitness());
  }
}

TEST(ParallelTrain, IslandsMatchSequentialExactlyAllExecutions) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset train(s, 4, 1);
  // Coverage target 100 %: both schedules run every execution.
  const auto cfg = config_with(3, 100.0);
  const auto sequential = ef::core::train(
      train, {.config = cfg, .parallelism = TrainParallelism::kSequential});
  const auto islands =
      ef::core::train(train, {.config = cfg, .parallelism = TrainParallelism::kIslands});
  expect_same_result(sequential, islands);
}

TEST(ParallelTrain, IslandsMatchSequentialWithEarlyStop) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset train(s, 4, 1);
  // Loose target: the sequential schedule stops after execution 1; the
  // island one must union the same prefix.
  const auto cfg = config_with(4, 50.0);
  const auto sequential = ef::core::train(
      train, {.config = cfg, .parallelism = TrainParallelism::kSequential});
  const auto islands =
      ef::core::train(train, {.config = cfg, .parallelism = TrainParallelism::kIslands});
  EXPECT_LT(sequential.executions, 4u);  // early stop actually happened
  expect_same_result(sequential, islands);
}

TEST(ParallelTrain, AutoMatchesPinnedSchedules) {
  const TimeSeries s = noisy_sine(300);
  const WindowDataset train(s, 4, 1);
  const auto cfg = config_with(2, 100.0);
  const auto automatic = ef::core::train(train, {.config = cfg});
  const auto sequential = ef::core::train(
      train, {.config = cfg, .parallelism = TrainParallelism::kSequential});
  expect_same_result(automatic, sequential);
}

TEST(ParallelTrain, WorksOnExplicitPool) {
  const TimeSeries s = noisy_sine(300);
  const WindowDataset train(s, 4, 1);
  ef::util::ThreadPool pool(4);
  const auto cfg = config_with(3, 100.0);
  const auto islands = ef::core::train(
      train, {.config = cfg, .pool = &pool, .parallelism = TrainParallelism::kIslands});
  EXPECT_FALSE(islands.system.empty());
  // The binding guarantee is sequential equivalence, whatever the stop point.
  const auto sequential = ef::core::train(
      train, {.config = cfg, .parallelism = TrainParallelism::kSequential});
  expect_same_result(sequential, islands);
}

TEST(ParallelTrain, SeedOverrideLeavesConfigAlone) {
  const TimeSeries s = noisy_sine(300);
  const WindowDataset train(s, 4, 1);
  const auto cfg = config_with(1, 100.0);  // cfg.evolution.seed == 9

  auto override_cfg = cfg;
  override_cfg.evolution.seed = 123;
  const auto via_config = ef::core::train(
      train, {.config = override_cfg, .parallelism = TrainParallelism::kSequential});
  const auto via_option = ef::core::train(
      train,
      {.config = cfg, .parallelism = TrainParallelism::kSequential, .seed = 123});
  expect_same_result(via_config, via_option);
}

TEST(ParallelTrain, InvalidConfigThrows) {
  const TimeSeries s = noisy_sine(300);
  const WindowDataset train(s, 4, 1);
  RuleSystemConfig cfg = config_with(0, 90.0);
  EXPECT_THROW(
      (void)ef::core::train(train,
                            {.config = cfg, .parallelism = TrainParallelism::kIslands}),
      std::invalid_argument);
}

TEST(ParallelTrain, TelemetryWithIslandsThrows) {
  const TimeSeries s = noisy_sine(300);
  const WindowDataset train(s, 4, 1);
  const auto cfg = config_with(2, 100.0);
  ef::core::TelemetryCollector collector;
  TrainOptions options;
  options.config = cfg;
  options.parallelism = TrainParallelism::kIslands;
  options.telemetry = collector.sink();
  EXPECT_THROW((void)ef::core::train(train, options), std::invalid_argument);
}

TEST(ParallelTrain, AutoWithTelemetryFallsBackToSequential) {
  const TimeSeries s = noisy_sine(300);
  const WindowDataset train(s, 4, 1);
  auto cfg = config_with(2, 100.0);
  cfg.evolution.telemetry_stride = 50;
  ef::core::TelemetryCollector collector;
  TrainOptions options;
  options.config = cfg;
  options.telemetry = collector.sink();  // kAuto must not pick islands here
  const auto result = ef::core::train(train, options);
  EXPECT_FALSE(result.system.empty());
  EXPECT_FALSE(collector.empty());
}

// ---- In-order claims and cancellation ----------------------------------------

std::string saved(const ef::core::TrainResult& result) {
  std::ostringstream out;
  result.system.save(out);
  return out.str();
}

TEST(ParallelTrain, IslandsMatchSequentialForEveryPoolSizeAndTarget) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset train(s, 4, 1);
  for (const std::size_t executions : {1u, 3u, 6u}) {
    for (const double target : {0.0, 50.0, 100.0}) {
      // A tight EMAX keeps coverage low (about 20, 35, 47, 47, 51 and 55 %
      // after executions 1–6): 50 % stops after execution 5, 100 % never.
      auto cfg = config_with(executions, target);
      cfg.evolution.emax = 0.05;
      const auto sequential = ef::core::train(
          train, {.config = cfg, .parallelism = TrainParallelism::kSequential});
      EXPECT_EQ(sequential.executions_run, sequential.executions);
      for (const std::size_t workers : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(testing::Message() << executions << " executions, target " << target
                                        << " %, " << workers << " workers");
        ef::util::ThreadPool pool(workers);
        const auto islands = ef::core::train(
            train, {.config = cfg, .pool = &pool, .parallelism = TrainParallelism::kIslands});
        EXPECT_EQ(saved(islands), saved(sequential));
        expect_same_result(sequential, islands);
        EXPECT_GE(islands.executions_run, islands.executions);
        EXPECT_LE(islands.executions_run, islands.executions + workers - 1);
        if (target == 0.0) {
          EXPECT_EQ(islands.executions, 1u);
        }
        if (target == 100.0) {
          EXPECT_EQ(islands.executions_run, executions);
        }
      }
    }
  }
}

TEST(ParallelTrain, MetTargetCancelsTheRemainingExecutions) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset train(s, 4, 1);
  ef::util::ThreadPool pool(2);
  // Target 0 %: execution 1 alone meets it, so of six executions only the
  // one the other island claimed beside it may also have started.
  const auto islands = ef::core::train(
      train, {.config = config_with(6, 0.0), .pool = &pool,
              .parallelism = TrainParallelism::kIslands});
  EXPECT_EQ(islands.executions, 1u);
  EXPECT_LE(islands.executions_run, 2u);
}

TEST(ParallelTrain, ThrowingExecutionStopsTheLoopAndRethrows) {
  const TimeSeries s = noisy_sine(300);
  const WindowDataset train(s, 4, 1);
  auto cfg = config_with(3, 100.0);
  cfg.evolution.telemetry_stride = 50;
  std::size_t records = 0;
  TrainOptions options;
  options.config = cfg;
  options.parallelism = TrainParallelism::kSequential;
  options.telemetry = [&](const ef::core::TelemetryRecord&) {
    if (++records == 2) throw std::runtime_error("sink failed");
  };
  EXPECT_THROW((void)ef::core::train(train, options), std::runtime_error);
  EXPECT_EQ(records, 2u);  // nothing ran past the failing execution
}

// ---- Prediction::bound ------------------------------------------------------

TEST(PredictWithBound, AbstainsWithNoVotes) {
  const ef::core::RuleSystem empty;
  const ef::core::Prediction out = empty.forecast(std::vector<double>{1.0});
  EXPECT_TRUE(out.abstained);
  EXPECT_EQ(out.votes, 0u);
}

TEST(PredictWithBound, SingleRuleBoundIsItsError) {
  using ef::core::Interval;
  using ef::core::Rule;
  Rule r({Interval(0, 10)});
  ef::core::PredictingPart part;
  part.fit.coeffs = {0.0, 5.0};
  part.fit.max_abs_residual = 0.25;
  part.fitness = 1.0;
  r.set_predicting(part);
  ef::core::RuleSystem system;
  system.add_rules({std::move(r)}, false, -1.0);

  const ef::core::Prediction out = system.forecast(std::vector<double>{2.0});
  ASSERT_FALSE(out.abstained);
  EXPECT_DOUBLE_EQ(out.value, 5.0);
  EXPECT_DOUBLE_EQ(out.bound, 0.25);  // no disagreement term with one voter
  EXPECT_EQ(out.votes, 1u);
}

TEST(PredictWithBound, DisagreementWidensBound) {
  using ef::core::Interval;
  using ef::core::Rule;
  const auto make = [](double p, double e) {
    Rule r({Interval(0, 10)});
    ef::core::PredictingPart part;
    part.fit.coeffs = {0.0, p};
    part.fit.max_abs_residual = e;
    part.fitness = 1.0;
    r.set_predicting(part);
    return r;
  };
  ef::core::RuleSystem system;
  system.add_rules({make(4.0, 0.1), make(8.0, 0.1)}, false, -1.0);
  const ef::core::Prediction out = system.forecast(std::vector<double>{1.0});
  ASSERT_FALSE(out.abstained);
  EXPECT_DOUBLE_EQ(out.value, 6.0);
  EXPECT_DOUBLE_EQ(out.bound, 2.1);  // |8−6| + 0.1
}

TEST(PredictWithBound, EmpiricallyCalibratedOnMackeyGlass) {
  const auto mg = ef::series::make_paper_mackey_glass();
  const WindowDataset train(mg.train, 4, 1);
  const WindowDataset test(mg.test, 4, 1);

  RuleSystemConfig cfg;
  cfg.evolution.population_size = 40;
  cfg.evolution.generations = 2000;
  cfg.evolution.emax = 0.12;
  cfg.evolution.seed = 77;
  cfg.max_executions = 2;
  cfg.coverage_target_percent = 90.0;
  const auto trained = ef::core::train(train, {.config = cfg});

  std::size_t covered = 0;
  std::size_t inside = 0;
  for (std::size_t i = 0; i < test.count(); ++i) {
    const ef::core::Prediction out = trained.system.forecast(test.pattern(i));
    if (out.abstained) continue;
    ++covered;
    if (std::abs(test.target(i) - out.value) <= out.bound) ++inside;
  }
  ASSERT_GT(covered, 50u);
  // Heuristic bound: expect strong but not perfect containment out-of-sample.
  EXPECT_GT(static_cast<double>(inside) / static_cast<double>(covered), 0.85);
}

}  // namespace
