// Tests for the alternative EA engines: generational (vs the paper's
// steady-state) and Pittsburgh (vs the paper's Michigan encoding).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/generational.hpp"
#include "core/pittsburgh.hpp"
#include "series/timeseries.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::GenerationalConfig;
using ef::core::GenerationalEngine;
using ef::core::PittsburghConfig;
using ef::core::PittsburghEngine;
using ef::core::WindowDataset;
using ef::series::TimeSeries;

// Each engine's evaluator refers to the engine's own match engine and config;
// a copy or move would evaluate through the source's members.
static_assert(!std::is_copy_constructible_v<GenerationalEngine>);
static_assert(!std::is_move_constructible_v<GenerationalEngine>);
static_assert(!std::is_copy_assignable_v<GenerationalEngine>);
static_assert(!std::is_move_assignable_v<GenerationalEngine>);
static_assert(!std::is_copy_constructible_v<PittsburghEngine>);
static_assert(!std::is_move_constructible_v<PittsburghEngine>);
static_assert(!std::is_copy_assignable_v<PittsburghEngine>);
static_assert(!std::is_move_assignable_v<PittsburghEngine>);

TimeSeries noisy_sine(std::size_t n) {
  ef::util::Rng rng(31);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(static_cast<double>(i) * 0.2) + rng.normal(0.0, 0.03);
  }
  return TimeSeries(std::move(v));
}

// ---- generational -----------------------------------------------------------

GenerationalConfig generational_config() {
  GenerationalConfig cfg;
  cfg.base.population_size = 16;
  cfg.base.emax = 0.3;
  cfg.base.seed = 8;
  cfg.elite_count = 2;
  return cfg;
}

TEST(Generational, ConfigValidation) {
  GenerationalConfig cfg = generational_config();
  cfg.elite_count = cfg.base.population_size;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = generational_config();
  cfg.base.emax = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Generational, PopulationSizeStable) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset data(s, 4, 1);
  GenerationalEngine engine(data, generational_config());
  for (int g = 0; g < 5; ++g) {
    engine.step();
    ASSERT_EQ(engine.population().size(), 16u);
  }
  EXPECT_EQ(engine.generation(), 5u);
}

TEST(Generational, EvaluationAccounting) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset data(s, 4, 1);
  GenerationalEngine engine(data, generational_config());
  engine.step();
  // One step = population_size − elite_count offspring evaluations.
  EXPECT_EQ(engine.evaluations(), 14u);
  engine.run_evaluations(100);
  EXPECT_GE(engine.evaluations(), 100u);
}

TEST(Generational, ElitismPreservesBestFitness) {
  const TimeSeries s = noisy_sine(500);
  const WindowDataset data(s, 4, 1);
  GenerationalEngine engine(data, generational_config());
  double best = engine.snapshot().best_fitness;
  for (int g = 0; g < 20; ++g) {
    engine.step();
    const double now = engine.snapshot().best_fitness;
    ASSERT_GE(now, best - 1e-12);  // elites never regress
    best = now;
  }
}

TEST(Generational, Deterministic) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset data(s, 4, 1);
  GenerationalEngine a(data, generational_config());
  GenerationalEngine b(data, generational_config());
  for (int g = 0; g < 10; ++g) {
    a.step();
    b.step();
  }
  ASSERT_EQ(a.population().size(), b.population().size());
  for (std::size_t i = 0; i < a.population().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.population()[i].fitness(), b.population()[i].fitness());
  }
}

// ---- Pittsburgh -------------------------------------------------------------

PittsburghConfig pittsburgh_config() {
  PittsburghConfig cfg;
  cfg.population_size = 8;
  cfg.rules_per_individual = 6;
  cfg.max_rules = 12;
  cfg.generations = 5;
  cfg.emax = 0.3;
  cfg.seed = 9;
  return cfg;
}

TEST(Pittsburgh, ConfigValidation) {
  PittsburghConfig cfg = pittsburgh_config();
  cfg.population_size = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = pittsburgh_config();
  cfg.min_rules = 20;
  cfg.max_rules = 10;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = pittsburgh_config();
  cfg.add_rule_prob = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Pittsburgh, PopulationShape) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset data(s, 4, 1);
  PittsburghEngine engine(data, pittsburgh_config());
  ASSERT_EQ(engine.population().size(), 8u);
  for (const auto& individual : engine.population()) {
    EXPECT_EQ(individual.rules.size(), 6u);
    EXPECT_GE(individual.coverage_percent, 0.0);
    EXPECT_LE(individual.coverage_percent, 100.0);
  }
}

TEST(Pittsburgh, RuleCountsStayInBounds) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset data(s, 4, 1);
  PittsburghConfig cfg = pittsburgh_config();
  cfg.add_rule_prob = 0.5;
  cfg.delete_rule_prob = 0.5;
  PittsburghEngine engine(data, cfg);
  engine.run();
  for (const auto& individual : engine.population()) {
    EXPECT_GE(individual.rules.size(), cfg.min_rules);
    EXPECT_LE(individual.rules.size(), cfg.max_rules);
  }
}

TEST(Pittsburgh, BestFitnessImprovesOverGenerations) {
  const TimeSeries s = noisy_sine(600);
  const WindowDataset data(s, 4, 1);
  PittsburghConfig cfg = pittsburgh_config();
  cfg.generations = 20;
  PittsburghEngine engine(data, cfg);
  const double initial = engine.best().fitness;
  engine.run();
  EXPECT_GE(engine.best().fitness, initial);  // elitism: never worse
  EXPECT_GT(engine.best().fitness, 0.0);      // learned something real
}

TEST(Pittsburgh, BestSystemIsQueryable) {
  const TimeSeries s = noisy_sine(500);
  const WindowDataset data(s, 4, 1);
  PittsburghEngine engine(data, pittsburgh_config());
  engine.run();
  const auto system = engine.best_system();
  EXPECT_EQ(system.size(), engine.best().rules.size());
  // Coverage reported by the individual must match the system's.
  EXPECT_NEAR(system.coverage_percent(data), engine.best().coverage_percent, 1e-9);
}

TEST(Pittsburgh, EvaluationAccountingGrows) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset data(s, 4, 1);
  PittsburghEngine engine(data, pittsburgh_config());
  const std::size_t initial = engine.evaluations();
  EXPECT_EQ(initial, 8u * 6u);  // initial population
  engine.step();
  EXPECT_GT(engine.evaluations(), initial);
}

TEST(Pittsburgh, Deterministic) {
  const TimeSeries s = noisy_sine(400);
  const WindowDataset data(s, 4, 1);
  PittsburghEngine a(data, pittsburgh_config());
  PittsburghEngine b(data, pittsburgh_config());
  a.run();
  b.run();
  EXPECT_DOUBLE_EQ(a.best().fitness, b.best().fitness);
  EXPECT_EQ(a.best().rules.size(), b.best().rules.size());
}

}  // namespace
