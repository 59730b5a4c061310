// Tests for the compiled single-window forecast (RuleSystem::compile_planes +
// RuleSystem::forecast over the planes), driven through the serving entry
// LoadedModel::forecast and the compile-per-call RuleSystem::forecast: exact
// agreement with the paper oracle's voters (tests/oracle/) under every
// aggregation — hand, trained and 333-rule systems, random and ±1e300 probes,
// out-of-range, empty and wrong-length windows, mixed-dimension systems —
// plus degenerate byte maps meeting infinite values, and planes of another
// system rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/rule_system.hpp"
#include "oracle/expected_prediction.hpp"
#include "serve/model_store.hpp"
#include "series/mackey_glass.hpp"
#include "util/rng.hpp"

namespace {

using ef::core::Aggregation;
using ef::core::Interval;
using ef::core::Prediction;
using ef::core::Rule;
using ef::core::RuleSystem;
using ef::serve::LoadedModel;

constexpr Aggregation kAllAggregations[] = {
    Aggregation::kMean, Aggregation::kFitnessWeighted, Aggregation::kMedian,
    Aggregation::kBestRule, Aggregation::kInverseError};

/// A rule whose hyperplane puts `slope` on every lag plus `prediction` as
/// the intercept, so infinite lags reach the vote values too.
Rule make_rule(std::vector<Interval> genes, double prediction, double fitness,
               double error = 0.1, double slope = 0.0) {
  Rule r(std::move(genes));
  ef::core::PredictingPart part;
  part.fit.coeffs.assign(r.window() + 1, slope);
  part.fit.coeffs.back() = prediction;
  part.fit.mean_prediction = prediction;
  part.fit.max_abs_residual = error;
  part.matches = 5;
  part.fitness = fitness;
  r.set_predicting(part);
  return r;
}

std::shared_ptr<const LoadedModel> load(RuleSystem system) {
  return LoadedModel::make(std::move(system), "m", 1, 1);
}

/// Windows with one lag replaced by ±1e300 — finite, so a served request
/// carries them past validation — for every lag in turn, so each value lands
/// far outside the byte map's range.
std::vector<std::vector<double>> huge_value_probes(const std::vector<double>& base) {
  std::vector<std::vector<double>> probes;
  for (std::size_t j = 0; j < base.size(); ++j) {
    for (const double huge : {1e300, -1e300}) {
      probes.push_back(base);
      probes.back()[j] = huge;
    }
  }
  return probes;
}

bool same_double(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

/// A forecast equals the oracle's exactly: abstention, vote count, value and
/// bound (NaN, from opposing infinite votes, equals NaN).
void expect_same(const Prediction& got, const Prediction& expected, Aggregation how) {
  ASSERT_EQ(got.abstained, expected.abstained) << to_string(how);
  ASSERT_EQ(got.votes, expected.votes) << to_string(how);
  if (!expected.abstained) {
    ASSERT_TRUE(same_double(got.value, expected.value))
        << to_string(how) << ": " << got.value << " vs " << expected.value;
    ASSERT_TRUE(same_double(got.bound, expected.bound))
        << to_string(how) << ": " << got.bound << " vs " << expected.bound;
  }
}

/// The served (compiled-once) and compile-per-call forecasts both equal the
/// oracle's under every aggregation.
void expect_same_forecast(const LoadedModel& model, std::span<const double> w) {
  for (const Aggregation how : kAllAggregations) {
    const Prediction expected = ef::oracle::expected_prediction(model.system().rules(), w, how);
    expect_same(model.forecast(w, how), expected, how);
    expect_same(model.system().forecast(w, how), expected, how);
  }
}

RuleSystem hand_system() {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 0.5), Interval(0.0, 1.0)}, 10.0, 2.0),
                    make_rule({Interval(0.3, 0.9), Interval(0.0, 1.0)}, 20.0, 1.0),
                    make_rule({Interval::wildcard(), Interval(0.2, 0.4)}, 30.0, 3.0)},
                   false, -1.0);
  return system;
}

TEST(CompiledForecast, AgreesWithReferenceOnHandSystem) {
  const auto model = load(hand_system());
  ef::util::Rng rng(4);
  for (int probe = 0; probe < 500; ++probe) {
    const std::vector<double> w{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)};
    expect_same_forecast(*model, w);
  }
  for (const auto& w : huge_value_probes({0.35, 0.3})) expect_same_forecast(*model, w);
}

TEST(CompiledForecast, AgreesWithReferenceOnTrainedSystem) {
  const auto mg = ef::series::make_paper_mackey_glass();
  const ef::core::WindowDataset train(mg.train, 4, 1);
  const ef::core::WindowDataset test(mg.test, 4, 1);

  ef::core::RuleSystemConfig cfg;
  cfg.evolution.population_size = 40;
  cfg.evolution.generations = 1500;
  cfg.evolution.emax = 0.12;
  cfg.evolution.seed = 3;
  cfg.max_executions = 2;
  cfg.coverage_target_percent = 100.0;
  const auto model = load(ef::core::train(train, {.config = cfg}).system);
  ASSERT_GT(model->system().size(), 0u);

  for (std::size_t i = 0; i < test.count(); ++i) expect_same_forecast(*model, test.pattern(i));
  for (std::size_t i = 0; i < test.count(); i += 25) {
    const auto p = test.pattern(i);
    for (const auto& w : huge_value_probes({p.begin(), p.end()})) {
      expect_same_forecast(*model, w);
    }
  }
}

TEST(CompiledForecast, LargeSystemAgreesWithReference) {
  // 333 rules: eleven 32-rule AVX2 vectors and a partial one, so voter lists
  // gather matches from every lane block of the window-major kernel. Genes
  // are wide enough that most probes have dozens of voters, and some rules
  // are all wildcard.
  ef::util::Rng rng(19);
  constexpr std::size_t kWindow = 6;
  std::vector<Rule> rules;
  for (int r = 0; r < 333; ++r) {
    std::vector<Interval> genes;
    for (std::size_t j = 0; j < kWindow; ++j) {
      if (r % 37 == 0 || rng.bernoulli(0.4)) {
        genes.push_back(Interval::wildcard());
      } else {
        const double lo = rng.uniform(-0.2, 0.6);
        genes.emplace_back(lo, lo + rng.uniform(0.3, 0.8));
      }
    }
    rules.push_back(make_rule(std::move(genes), rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0),
                              rng.uniform(0.01, 0.3), rng.uniform(-0.5, 0.5)));
  }
  RuleSystem system;
  system.add_rules(std::move(rules), false, -1.0);
  const auto model = load(std::move(system));
  ASSERT_EQ(model->system().size(), 333u);

  std::vector<double> flat;
  for (int probe = 0; probe < 300; ++probe) {
    std::vector<double> w(kWindow);
    for (double& v : w) v = rng.uniform(-0.3, 1.3);
    expect_same_forecast(*model, w);
    flat.insert(flat.end(), w.begin(), w.end());
  }
  for (const auto& w : huge_value_probes({0.3, 0.4, 0.5, 0.4, 0.3, 0.35})) {
    expect_same_forecast(*model, w);
  }
  for (const Aggregation how : kAllAggregations) {
    const auto batch = model->system().forecast_batch(flat, kWindow, how);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "position " << i);
      expect_same(batch[i],
                  ef::oracle::expected_prediction(model->system().rules(),
                                                  {flat.data() + i * kWindow, kWindow}, how),
                  how);
    }
  }
}

TEST(CompiledForecast, OutOfRangeWindows) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 0.1), Interval::wildcard()}, 1.0, 1.0),
                    make_rule({Interval(0.9, 1.0), Interval(0.0, 1.0)}, 2.0, 1.0)},
                   false, -1.0);
  const auto model = load(std::move(system));
  // Far outside the genes' value range: the byte map clamps to its edge
  // bytes, and exact verification still decides.
  for (const std::vector<double>& w :
       {std::vector<double>{-5.0, 0.0}, std::vector<double>{5.0, 0.5},
        std::vector<double>{0.05, -5.0}, std::vector<double>{0.95, 5.0},
        std::vector<double>{0.0, 1e9}, std::vector<double>{1.0, 1.0}}) {
    expect_same_forecast(*model, w);
  }
  EXPECT_TRUE(model->forecast(std::vector<double>{-5.0, 0.0}).abstained);
  EXPECT_EQ(model->forecast(std::vector<double>{0.05, -5.0}).votes, 1u);
}

TEST(CompiledForecast, EmptyWindowAbstains) {
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 1.0)}, 1.0, 1.0)}, false, -1.0);
  const auto model = load(std::move(system));
  const std::vector<double> empty;
  expect_same_forecast(*model, empty);
  EXPECT_TRUE(model->forecast(empty).abstained);
  EXPECT_EQ(model->forecast(empty).votes, 0u);
}

TEST(CompiledForecast, WrongLengthWindowEqualsReference) {
  const auto model = load(hand_system());
  ASSERT_EQ(model->window(), 2u);
  for (const std::vector<double>& w :
       {std::vector<double>{0.35}, std::vector<double>{0.35, 0.3, 0.3},
        std::vector<double>{0.1, 0.5, 0.5, 0.5}}) {
    expect_same_forecast(*model, w);
    EXPECT_TRUE(model->forecast(w).abstained);
  }
}

TEST(CompiledForecast, MixedDimensionSystem) {
  // The planes are compiled for the first rule's length; rules of the other
  // length are inactive lanes there, and windows of that length compile
  // planes of their own — either way every forecast equals the oracle's, and
  // forecast_batch agrees at both lengths.
  RuleSystem system;
  system.add_rules({make_rule({Interval(0.0, 0.6), Interval::wildcard()}, 1.0, 2.0),
                    make_rule({Interval(0.2, 1.0), Interval(0.0, 0.5), Interval::wildcard()},
                              2.0, 1.0, 0.2, 0.5),
                    make_rule({Interval::wildcard(), Interval(0.3, 0.9)}, 3.0, 3.0, 0.05, 1.0),
                    make_rule(std::vector<Interval>(3, Interval::wildcard()), 4.0, 0.5)},
                   false, -1.0);
  const auto model = load(std::move(system));
  ASSERT_EQ(model->window(), 2u);
  ef::util::Rng rng(11);
  for (const std::size_t d : {std::size_t{2}, std::size_t{3}}) {
    std::vector<double> flat;
    for (int probe = 0; probe < 200; ++probe) {
      std::vector<double> w(d);
      for (double& v : w) v = rng.uniform(-0.2, 1.2);
      expect_same_forecast(*model, w);
      flat.insert(flat.end(), w.begin(), w.end());
    }
    for (const Aggregation how : kAllAggregations) {
      const auto batch = model->system().forecast_batch(flat, d, how);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "d=" << d << " position " << i);
        expect_same(batch[i],
                    ef::oracle::expected_prediction(model->system().rules(),
                                                    {flat.data() + i * d, d}, how),
                    how);
      }
    }
  }
}

TEST(CompiledForecast, DegenerateByteMapWithInfiniteValues) {
  // Rule sets whose bounded genes span no value range (all wildcard, or one
  // point) compile to the degenerate qinv == 0 byte map, where ±inf·0 is
  // NaN; it must quantize to byte 0 instead of reaching an undefined
  // float-to-integer conversion. The same windows go through forecast_batch
  // on their own and the compiled entry; both must equal the oracle's.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> windows{
      {inf, 1.0, 1.0}, {1.0, -inf, 1.0}, {1.0, 1.0, inf}, {1.0, 1.0, 1.0}, {-inf, inf, 1.0}};
  RuleSystem wildcard;
  wildcard.add_rules({make_rule(std::vector<Interval>(3, Interval::wildcard()), 1.0, 1.0)},
                     false, -1.0);
  RuleSystem point;
  point.add_rules({make_rule({Interval(1.0, 1.0), Interval::wildcard(), Interval::wildcard()},
                             2.0, 1.0),
                   make_rule({Interval::wildcard(), Interval(1.0, 1.0), Interval(1.0, 1.0)},
                             3.0, 1.0)},
                  false, -1.0);
  for (RuleSystem* system : {&wildcard, &point}) {
    const auto model = load(*system);
    for (const auto& w : windows) {
      expect_same_forecast(*model, w);
      const auto batch = system->forecast_batch(w, w.size());
      ASSERT_EQ(batch.size(), 1u);
      expect_same(batch[0],
                  ef::oracle::expected_prediction(system->rules(), w, Aggregation::kMean),
                  Aggregation::kMean);
    }
  }
  // The wildcard rule accepts everything, infinities included.
  EXPECT_EQ(load(wildcard)->forecast(windows[0]).votes, 1u);
  EXPECT_EQ(load(point)->forecast(windows[3]).votes, 2u);
}

TEST(CompiledForecast, PlanesOfAnotherSystemThrow) {
  // Planes carry one lane per rule of the system they were compiled from;
  // forecasting another system over them would read rules it does not have
  // (more lanes) or skip rules it has (fewer lanes).
  const RuleSystem larger = hand_system();
  RuleSystem smaller;
  smaller.add_rules({make_rule({Interval(0.0, 1.0), Interval(0.0, 1.0)}, 5.0, 1.0)}, false,
                    -1.0);
  const std::vector<double> w{0.35, 0.3};
  EXPECT_THROW((void)smaller.forecast(larger.compile_planes(2), w), std::invalid_argument);
  EXPECT_THROW((void)larger.forecast(smaller.compile_planes(2), w), std::invalid_argument);
  EXPECT_THROW((void)larger.forecast(RuleSystem().compile_planes(2), w),
               std::invalid_argument);
  EXPECT_EQ(smaller.forecast(smaller.compile_planes(2), w).votes, 1u);
}

}  // namespace
