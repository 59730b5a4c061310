// Tests for core/evolution.hpp: steady-state invariants (population size,
// replacement only improves the slot), determinism, telemetry, learning on a
// predictable series.
#include "core/evolution.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <type_traits>
#include <vector>

#include "series/mackey_glass.hpp"
#include "series/timeseries.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::EvolutionConfig;
using ef::core::SteadyStateEngine;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

// The engine's evaluator refers to the engine's own match engine and config;
// a copy or move would evaluate through the source's members.
static_assert(!std::is_copy_constructible_v<SteadyStateEngine>);
static_assert(!std::is_move_constructible_v<SteadyStateEngine>);
static_assert(!std::is_copy_assignable_v<SteadyStateEngine>);
static_assert(!std::is_move_assignable_v<SteadyStateEngine>);

TimeSeries noisy_sine(std::size_t n, double noise, std::uint64_t seed = 123) {
  ef::util::Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(static_cast<double>(i) * 0.2) + rng.normal(0.0, noise);
  }
  return TimeSeries(std::move(v), "noisy_sine");
}

EvolutionConfig small_config() {
  EvolutionConfig cfg;
  cfg.population_size = 20;
  cfg.generations = 300;
  cfg.emax = 0.3;
  cfg.seed = 77;
  return cfg;
}

TEST(Engine, PopulationSizeInvariantAcrossGenerations) {
  const TimeSeries s = noisy_sine(400, 0.05);
  const WindowDataset data(s, 4, 1);
  SteadyStateEngine engine(data, small_config());
  for (int g = 0; g < 200; ++g) {
    engine.step();
    ASSERT_EQ(engine.population().size(), 20u);
  }
}

TEST(Engine, EveryIndividualStaysEvaluated) {
  const TimeSeries s = noisy_sine(400, 0.05);
  const WindowDataset data(s, 4, 1);
  SteadyStateEngine engine(data, small_config());
  for (int g = 0; g < 100; ++g) engine.step();
  for (const auto& r : engine.population()) {
    ASSERT_TRUE(r.predicting().has_value());
    EXPECT_TRUE(std::isfinite(r.fitness()));
  }
}

TEST(Engine, GenerationCounterAdvances) {
  const TimeSeries s = noisy_sine(300, 0.05);
  const WindowDataset data(s, 4, 1);
  SteadyStateEngine engine(data, small_config());
  EXPECT_EQ(engine.generation(), 0u);
  engine.step();
  EXPECT_EQ(engine.generation(), 1u);
  engine.run();
  EXPECT_EQ(engine.generation(), 300u);
}

TEST(Engine, StopFlagEndsRunBetweenGenerations) {
  const TimeSeries s = noisy_sine(300, 0.05);
  const WindowDataset data(s, 4, 1);
  std::atomic<bool> stop{true};
  SteadyStateEngine stopped(data, small_config());
  EXPECT_FALSE(stopped.run(&stop));
  EXPECT_EQ(stopped.generation(), 0u);

  // An unset flag changes nothing: the same population as a plain run.
  stop = false;
  SteadyStateEngine flagged(data, small_config());
  SteadyStateEngine plain(data, small_config());
  EXPECT_TRUE(flagged.run(&stop));
  EXPECT_TRUE(plain.run());
  EXPECT_EQ(flagged.generation(), 300u);
  ASSERT_EQ(flagged.population().size(), plain.population().size());
  for (std::size_t i = 0; i < plain.population().size(); ++i) {
    EXPECT_EQ(flagged.population()[i].genes(), plain.population()[i].genes());
  }
}

TEST(Engine, DeterministicForSameSeed) {
  const TimeSeries s = noisy_sine(400, 0.05);
  const WindowDataset data(s, 4, 1);
  SteadyStateEngine a(data, small_config());
  SteadyStateEngine b(data, small_config());
  a.run();
  b.run();
  ASSERT_EQ(a.population().size(), b.population().size());
  for (std::size_t i = 0; i < a.population().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.population()[i].fitness(), b.population()[i].fitness());
    for (std::size_t j = 0; j < a.population()[i].window(); ++j) {
      EXPECT_EQ(a.population()[i].genes()[j], b.population()[i].genes()[j]);
    }
  }
  EXPECT_EQ(a.replacements(), b.replacements());
}

TEST(Engine, DifferentSeedsProduceDifferentRuns) {
  const TimeSeries s = noisy_sine(400, 0.05);
  const WindowDataset data(s, 4, 1);
  EvolutionConfig cfg1 = small_config();
  EvolutionConfig cfg2 = small_config();
  cfg2.seed = 78;
  SteadyStateEngine a(data, cfg1);
  SteadyStateEngine b(data, cfg2);
  a.run();
  b.run();
  // Same init (deterministic §3.2), different evolution: at least some slots
  // diverge.
  bool any_different = false;
  for (std::size_t i = 0; i < a.population().size() && !any_different; ++i) {
    for (std::size_t j = 0; j < a.population()[i].window(); ++j) {
      if (!(a.population()[i].genes()[j] == b.population()[i].genes()[j])) {
        any_different = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_different);
}

// Replacement contract: mean fitness never decreases in a steady-state run
// with better-only replacement (each accepted offspring strictly improves
// its slot; rejected offspring change nothing).
TEST(Engine, MeanFitnessNonDecreasing) {
  const TimeSeries s = noisy_sine(500, 0.05);
  const WindowDataset data(s, 4, 1);
  SteadyStateEngine engine(data, small_config());
  double last_mean = engine.snapshot().mean_fitness;
  for (int g = 0; g < 300; ++g) {
    engine.step();
    const double mean = engine.snapshot().mean_fitness;
    ASSERT_GE(mean, last_mean - 1e-12);
    last_mean = mean;
  }
}

TEST(Engine, ReplacementsCountedCorrectly) {
  const TimeSeries s = noisy_sine(400, 0.05);
  const WindowDataset data(s, 4, 1);
  SteadyStateEngine engine(data, small_config());
  std::size_t accepted = 0;
  for (int g = 0; g < 200; ++g) {
    if (engine.step()) ++accepted;
  }
  EXPECT_EQ(engine.replacements(), accepted);
}

TEST(Engine, LearnsNoisySine) {
  // On a low-noise sine, evolution should raise the mean fitness clearly
  // above the §3.2 initial population's.
  const TimeSeries s = noisy_sine(600, 0.02);
  const WindowDataset data(s, 4, 1);
  EvolutionConfig cfg = small_config();
  cfg.generations = 2000;
  cfg.emax = 0.2;
  SteadyStateEngine engine(data, cfg);
  const double initial_mean = engine.snapshot().mean_fitness;
  engine.run();
  const double final_mean = engine.snapshot().mean_fitness;
  EXPECT_GT(final_mean, initial_mean * 1.05 + 1.0);
  EXPECT_GT(engine.replacements(), 50u);
}

TEST(Engine, TelemetryEmittedAtStride) {
  const TimeSeries s = noisy_sine(300, 0.05);
  const WindowDataset data(s, 4, 1);
  EvolutionConfig cfg = small_config();
  cfg.generations = 100;
  cfg.telemetry_stride = 10;
  ef::core::TelemetryCollector collector;
  SteadyStateEngine engine(data, cfg, nullptr, collector.sink());
  engine.run();
  // Generation 0 snapshot + one per 10 generations.
  ASSERT_EQ(collector.records().size(), 11u);
  EXPECT_EQ(collector.records().front().generation, 0u);
  EXPECT_EQ(collector.records().back().generation, 100u);
}

TEST(Engine, TelemetryOffByDefault) {
  const TimeSeries s = noisy_sine(300, 0.05);
  const WindowDataset data(s, 4, 1);
  ef::core::TelemetryCollector collector;
  EvolutionConfig cfg = small_config();
  cfg.generations = 50;
  cfg.telemetry_stride = 0;
  SteadyStateEngine engine(data, cfg, nullptr, collector.sink());
  engine.run();
  EXPECT_EQ(collector.records().size(), 1u);  // only the generation-0 snapshot
}

TEST(Engine, InvalidConfigThrows) {
  const TimeSeries s = noisy_sine(300, 0.05);
  const WindowDataset data(s, 4, 1);
  EvolutionConfig cfg = small_config();
  cfg.population_size = 1;
  EXPECT_THROW(SteadyStateEngine(data, cfg), std::invalid_argument);
  cfg = small_config();
  cfg.emax = 0.0;
  EXPECT_THROW(SteadyStateEngine(data, cfg), std::invalid_argument);
}

TEST(Engine, BestReturnsHighestFitness) {
  const TimeSeries s = noisy_sine(400, 0.05);
  const WindowDataset data(s, 4, 1);
  SteadyStateEngine engine(data, small_config());
  engine.run();
  const double best = engine.best().fitness();
  for (const auto& r : engine.population()) EXPECT_LE(r.fitness(), best);
}

TEST(Engine, JaccardCrowdingRunsAndKeepsInvariants) {
  const TimeSeries s = noisy_sine(400, 0.05);
  const WindowDataset data(s, 4, 1);
  EvolutionConfig cfg = small_config();
  cfg.distance = ef::core::DistanceMetric::kMatchedJaccard;
  cfg.generations = 200;
  SteadyStateEngine engine(data, cfg);
  engine.run();
  EXPECT_EQ(engine.population().size(), cfg.population_size);
  for (const auto& r : engine.population()) EXPECT_TRUE(r.predicting().has_value());
}

TEST(Engine, ConditionOverlapCrowdingRuns) {
  const TimeSeries s = noisy_sine(400, 0.05);
  const WindowDataset data(s, 4, 1);
  EvolutionConfig cfg = small_config();
  cfg.distance = ef::core::DistanceMetric::kConditionOverlap;
  cfg.generations = 200;
  SteadyStateEngine engine(data, cfg);
  engine.run();
  EXPECT_EQ(engine.population().size(), cfg.population_size);
}

TEST(Engine, MackeyGlassSmokeRun) {
  const auto exp = ef::series::make_paper_mackey_glass();
  const WindowDataset data(exp.train, 4, 1);
  EvolutionConfig cfg;
  cfg.population_size = 30;
  cfg.generations = 500;
  cfg.emax = 0.15;
  cfg.seed = 5;
  SteadyStateEngine engine(data, cfg);
  engine.run();
  EXPECT_GT(engine.snapshot().mean_fitness, 0.0);
}

}  // namespace
