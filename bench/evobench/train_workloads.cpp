// train_paper and train_fleet: the trainer and the fleet packer as their
// users run them.
#include <cmath>

#include "core/evolution.hpp"
#include "fleet/container.hpp"
#include "layers.hpp"
#include "series/metrics.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace evobench {
namespace {

/// Share of --seconds for the repeated training phase.
constexpr double kTrainShare = 0.8;
constexpr std::size_t kFleetSeries = 2000;
constexpr std::size_t kSmokeFleetSeries = 100;
constexpr std::size_t kFleetReps = 5;
/// Generation latency samples: execution 0 of the Venice and sunspot rows
/// (paper_rows() lists them first; they take ~98% of train_paper's time),
/// and of the first fleet series.
constexpr std::size_t kPaperStepRows = 2;
constexpr std::size_t kFleetStepSeries = 200;

/// Repeat `pass` (which returns its own wall time) while the next one is
/// expected to fit in `budget_s`, at least once and at most `max_passes`.
std::vector<double> repeat(double budget_s, std::size_t max_passes, const auto& pass) {
  std::vector<double> seconds;
  const Clock::time_point start = Clock::now();
  do {
    seconds.push_back(pass(seconds.size()));
  } while (seconds.size() < max_passes && seconds_since(start) + median(seconds) <= budget_s);
  return seconds;
}

/// One generation latency sample set: `steps` generations of execution 0
/// of `config` on `data`.
struct Steps {
  const core::WindowDataset* data = nullptr;
  core::EvolutionConfig config;
  std::size_t steps = 0;
};

/// The trainer's unit of work at light load: SteadyStateEngine::step (one
/// offspring selected, bred, evaluated and placed) timed on one worker.
void report_step_latency(const std::vector<Steps>& runs, Run& run) {
  ef::util::ThreadPool one(1);
  std::vector<double> us;
  for (const Steps& r : runs) {
    core::SteadyStateEngine engine(*r.data, r.config, &one);
    for (std::size_t g = 0; g < r.steps; ++g) {
      const Clock::time_point t0 = Clock::now();
      (void)engine.step();
      us.push_back(micros_between(t0, Clock::now()));
    }
  }
  report_latency(run, "lat", us);
}

bool all_finite(const series::PartialForecast& forecast) {
  for (const auto& value : forecast) {
    if (value && !std::isfinite(*value)) return false;
  }
  return true;
}

std::vector<double> targets_of(const core::WindowDataset& data) {
  const auto targets = data.targets();
  return {targets.begin(), targets.end()};
}

std::uint64_t fleet_digest(const fleet::FleetTrainResult& result) {
  std::uint64_t h = fnv1a("");
  for (const fleet::TrainedSeries& model : result.models) {
    h = fnv1a(save_text(model.system), h);
  }
  return h;
}

}  // namespace

void train_paper(const Options& options, Run& run, Tracer& tracer) {
  std::vector<PaperRow> rows;
  const std::vector<double> setup =
      set_up(options, [&] { rows = paper_rows(options.seed, options.smoke); });

  if (options.trace) {
    Subject subject;
    const Clock::time_point t0 = Clock::now();
    for (const PaperRow& row : rows) {
      core::TrainResult result = core::train(row.train, {.config = row.config});
      subject.models.push_back({row.name, &row.train, &row.validation, row.config,
                                std::move(result.system), result.executions,
                                executions_run(row.config, result.executions)});
    }
    subject.train_wall_s = seconds_since(t0);
    for (std::size_t m = 0; m < rows.size(); ++m) {
      const core::WindowDataset& validation = rows[m].validation;
      for (std::size_t j = 0; j < validation.count(); ++j) {
        subject.calls.push_back({m, validation.pattern(j), validation.target(j)});
      }
    }
    trace_layers(subject, options, run, tracer);
    return;
  }
  run.metric("setup_s", median(setup), "s", setup.size());

  // Timed: train every row (kAuto schedule, shared pool) and forecast its
  // validation set, as the table benches do minus the comparators.
  std::vector<std::string> texts(rows.size());
  double covered = 0.0;
  double total = 0.0;
  std::vector<double> nmse;
  const double budget_s = kTrainShare * options.seconds;
  const std::vector<double> pass_s = repeat(budget_s, 1000, [&](std::size_t pass) {
    const Clock::time_point t0 = Clock::now();
    std::vector<core::RuleSystem> systems;
    std::vector<series::PartialForecast> forecasts;
    std::vector<double> row_s;
    for (const PaperRow& row : rows) {
      const Clock::time_point row_start = Clock::now();
      systems.push_back(core::train(row.train, {.config = row.config}).system);
      forecasts.push_back(systems.back().forecast_dataset(row.validation));
      row_s.push_back(seconds_since(row_start));
    }
    const double seconds = seconds_since(t0);
    if (pass == 0) run.diagnostic("row_s", json_array(row_s));
    for (std::size_t r = 0; r < rows.size(); ++r) {
      run.attempted(1);
      std::string text = save_text(systems[r]);
      if (pass > 0) {
        if (text != texts[r]) run.fail(rows[r].name + ": training differs across passes");
        continue;
      }
      if (systems[r].empty()) run.fail(rows[r].name + ": empty rule system");
      if (!all_finite(forecasts[r])) run.fail(rows[r].name + ": non-finite forecast");
      const auto report =
          series::evaluate_partial(targets_of(rows[r].validation), forecasts[r]);
      covered += static_cast<double>(report.covered);
      total += static_cast<double>(report.total);
      nmse.push_back(report.nmse);
      run.diagnostic(rows[r].name,
                     "{\"rules\":" + std::to_string(systems[r].size()) +
                         ",\"coverage_pct\":" + json_number(report.coverage_percent) +
                         ",\"nmse\":" + json_number(report.nmse) +
                         ",\"digest\":" + json_string(hex64(fnv1a(text))) + "}");
      texts[r] = std::move(text);
    }
    return seconds;
  });
  run.metric("throughput", static_cast<double>(rows.size()) / median(pass_s), "1/s",
             pass_s.size());
  run.metric("coverage_pct", 100.0 * covered / total, "%", static_cast<std::size_t>(total));
  run.diagnostic("train_s", json_array(pass_s));
  run.diagnostic("nmse_mean", mean(nmse));

  std::vector<Steps> steps;
  for (std::size_t r = 0; r < kPaperStepRows; ++r) {
    const core::EvolutionConfig& config = rows[r].config.evolution;
    steps.push_back({&rows[r].train, config, config.generations});
  }
  report_step_latency(steps, run);
  run.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

void train_fleet(const Options& options, Run& run, Tracer& tracer) {
  Fleet fleet;
  const std::size_t series = options.smoke ? kSmokeFleetSeries : kFleetSeries;
  const std::vector<double> setup =
      set_up(options, [&] { fleet = make_fleet(series, options.seed); });
  fleet::FleetTrainOptions train_options = fleet_options(options.seed, options.smoke);

  if (options.trace) {
    const Clock::time_point t0 = Clock::now();
    fleet::FleetTrainResult result = fleet::train_fleet(fleet.train, train_options);
    Subject subject;
    subject.train_wall_s = seconds_since(t0);
    subject.container = true;
    std::vector<core::WindowDataset> train_sets;
    train_sets.reserve(series);
    for (std::size_t i = 0; i < series; ++i) {
      train_sets.emplace_back(fleet.train[i].series, train_options.window,
                              train_options.horizon, train_options.stride);
      fleet::TrainedSeries& trained = result.models[i];
      core::RuleSystemConfig config = train_options.config;
      config.evolution.seed = trained.seed;
      subject.models.push_back({trained.id, &train_sets[i], &fleet.heldout[i], config,
                                std::move(trained.system), trained.executions,
                                trained.executions});
      const core::WindowDataset& heldout = fleet.heldout[i];
      const std::size_t n = heldout.count();
      for (const std::size_t j : {i % n, (i + n / 2) % n}) {
        subject.calls.push_back({i, heldout.pattern(j), heldout.target(j)});
      }
    }
    trace_layers(subject, options, run, tracer);
    return;
  }
  run.metric("setup_s", median(setup), "s", setup.size());

  // Timed: the whole fleet through fleet::train_fleet on one worker, up to
  // five times. One worker because with two or more the default build
  // alternates for seconds at a time between a fast state and a ~2.5x
  // slower one (contention on the shared instrumentation), so no run of a
  // few seconds repeats; the all-cores rate is reported beside it.
  ef::util::ThreadPool one(1);
  train_options.pool = &one;
  fleet::FleetTrainResult result;
  std::uint64_t digest = 0;
  std::vector<double> models_per_s;
  (void)repeat(kTrainShare * options.seconds, kFleetReps, [&](std::size_t rep) {
    const Clock::time_point t0 = Clock::now();
    result = fleet::train_fleet(fleet.train, train_options);
    const double seconds = seconds_since(t0);
    models_per_s.push_back(static_cast<double>(result.trained) / seconds);
    run.attempted(series);
    const std::uint64_t h = fleet_digest(result);
    if (rep == 0) {
      digest = h;
      if (result.skipped) {
        run.fail(std::to_string(result.skipped) + " series skipped", result.skipped);
      }
    } else if (h != digest) {
      run.fail("fleet training differs across repetitions");
    }
    return seconds;
  });
  run.metric("throughput", median(models_per_s), "1/s", models_per_s.size());
  run.diagnostic("models_per_s", json_array(models_per_s));
  run.diagnostic("fleet_digest", json_string(hex64(digest)));

  // Once on the shared pool: the rate users get from all cores (not gated,
  // see above) and the library's promise of identical models at any
  // worker count.
  train_options.pool = nullptr;
  const Clock::time_point t0 = Clock::now();
  const fleet::FleetTrainResult parallel = fleet::train_fleet(fleet.train, train_options);
  run.diagnostic("all_cores_models_per_s",
                 static_cast<double>(parallel.trained) / seconds_since(t0));
  run.attempted(series);
  if (fleet_digest(parallel) != digest) {
    run.fail("fleet training differs across worker counts");
  }

  // Gate: the packed container materialises every model back to
  // byte-identical RuleSystem::save text.
  fleet::FleetWriter writer;
  for (const fleet::TrainedSeries& model : result.models) writer.add(model.id, model.system);
  const auto reader = fleet::FleetReader::from_bytes(writer.encode());
  std::size_t round_trip_failures = 0;
  for (const fleet::TrainedSeries& model : result.models) {
    const auto system = reader.materialize(model.id);
    if (!system || save_text(*system) != save_text(model.system)) ++round_trip_failures;
  }
  run.attempted(result.models.size());
  if (round_trip_failures) {
    run.fail("container round trip changed " + std::to_string(round_trip_failures) + " models",
             round_trip_failures);
  }

  // Pooled held-out quality.
  std::vector<double> actual;
  series::PartialForecast predicted;
  for (std::size_t i = 0; i < series; ++i) {
    const core::WindowDataset& heldout = fleet.heldout[i];
    for (std::size_t j = 0; j < heldout.count(); ++j) {
      actual.push_back(heldout.target(j));
      predicted.push_back(result.models[i].system.forecast(heldout.pattern(j)).as_optional());
    }
  }
  if (!all_finite(predicted)) run.fail("non-finite held-out forecast");
  const auto report = series::evaluate_partial(actual, predicted);
  run.metric("coverage_pct", report.coverage_percent, "%", report.total);
  run.diagnostic("nmse", report.nmse);

  std::vector<core::WindowDataset> train_sets;
  std::vector<Steps> steps;
  const std::size_t step_series = std::min(series, kFleetStepSeries);
  train_sets.reserve(step_series);
  for (std::size_t i = 0; i < step_series; ++i) {
    train_sets.emplace_back(fleet.train[i].series, train_options.window, train_options.horizon,
                            train_options.stride);
    core::EvolutionConfig config = train_options.config.evolution;
    config.seed = result.models[i].seed;
    steps.push_back({&train_sets.back(), config, config.generations});
  }
  report_step_latency(steps, run);
  run.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

}  // namespace evobench
