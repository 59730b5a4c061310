// serve_compute, serve_cached and serve_fleet: the forecast server over
// loopback, as its clients see it.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <tuple>

#include "fleet/container.hpp"
#include "layers.hpp"
#include "loopback.hpp"
#include "series/metrics.hpp"
#include "series/venice.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace evobench {
namespace {

/// The timed phases run in rounds of kRoundSeconds or a little more: a
/// closed loop, then the light and the heavy open loop, for these shares of
/// the round. On a shared virtual machine the hypervisor steals CPU time in
/// bursts of up to a second (a third of a quarter-second, at times, on the
/// reference host) and request latency follows the steal closely; short
/// rounds let each phase sample the whole run and let the gated values set
/// the stolen stretches aside (Phase). The heavy phase is reported, not
/// gated: near capacity its tail moves with scheduling noise by more than
/// any usable bound.
constexpr double kRoundSeconds = 0.625;
constexpr double kClosedShare = 0.4;
constexpr double kLightShare = 0.4;
constexpr double kHeavyShare = 0.2;
constexpr double kLightRate = 20000.0;
/// Heavy open-loop rates, pinned at about half of each workload's
/// closed-loop capacity on the reference host (README.md).
constexpr double kHeavyRateCompute = 55000.0;
constexpr double kHeavyRateCached = 230000.0;
constexpr double kHeavyRateFleet = 270000.0;

constexpr std::size_t kVerifyLines = 2000;
constexpr std::size_t kCoverageWindows = 50000;
constexpr std::size_t kReplayCalls = 4000;
constexpr std::size_t kHotWindows = 256;
constexpr std::size_t kFreshHours = 200000;
constexpr std::size_t kSmokeFreshHours = 20000;
constexpr std::size_t kHeldoutWindows = 20000;
constexpr std::size_t kServeFleetSeries = 1000;
constexpr std::size_t kSmokeServeFleetSeries = 100;
constexpr std::size_t kFleetRequests = 200000;
constexpr double kZipfExponent = 1.1;
const std::string kVeniceModel = "venice_t24";

/// The request sequence a workload sends (cycled by the load generator),
/// with what each request asks so replies can be checked.
struct Traffic {
  struct Item {
    std::size_t model = 0;  ///< index into models
    std::span<const double> window;
    double actual = 0.0;
    bool observe = false;
  };
  explicit Traffic(std::vector<std::string> names) : models(std::move(names)) {}

  void predict(std::size_t model, std::span<const double> window, double actual) {
    lines.push_back(predict_line(models[model], window, items.size()));
    items.push_back({model, window, actual, false});
  }
  void observe(std::size_t model, double actual) {
    lines.push_back(observe_line(models[model], actual));
    items.push_back({model, {}, actual, true});
  }

  std::vector<std::string> models;
  std::vector<std::string> lines;
  std::vector<Item> items;
};

void report_phase(Run& run, const std::string& name, const LoadResult& r) {
  run.attempted(r.sent);
  if (r.failed) {
    run.fail(name + ": " + std::to_string(r.failed) + " requests failed", r.failed);
  }
  std::string json = "{\"sent\":" + std::to_string(r.sent) +
                     ",\"ok\":" + std::to_string(r.ok) +
                     ",\"failed\":" + std::to_string(r.failed) + ",\"achieved_rps\":" +
                     json_number(static_cast<double>(r.sent) / r.seconds) +
                     ",\"backlog_max\":" + std::to_string(r.backlog_max);
  if (!r.late_us.empty()) {
    json += ",\"late_us_p99\":" + json_number(quantile(r.late_us, 0.99)) +
            ",\"latency_us\":{\"p50\":" + json_number(quantile(r.latency_us, 0.5)) +
            ",\"p90\":" + json_number(quantile(r.latency_us, 0.9)) +
            ",\"p99\":" + json_number(quantile(r.latency_us, 0.99)) +
            ",\"p999\":" + json_number(quantile(r.latency_us, 0.999)) +
            ",\"samples\":" + std::to_string(r.latency_us.size()) + "}";
  }
  run.diagnostic(name, json + "}");
}

/// Clock ticks of all CPUs since boot, and those the hypervisor stole
/// (/proc/stat; zeros where it is missing).
struct CpuTicks {
  long long steal = 0;
  long long total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTicks ticks;
  long long value = 0;
  for (int field = 0; field < 8 && in >> value; ++field) {
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

/// One phase over every round: its counts and samples, and for each of its
/// segments (one per round) the share of CPU time the hypervisor stole and
/// the gated statistic of each full sub-window (ok replies per second in
/// the closed loop, latency p50 in the open loops).
struct Phase {
  LoadResult total;
  std::vector<double> steal;
  std::vector<std::vector<double>> by_window;

  void add(const LoadResult& r, const LoadOptions& load, const CpuTicks& before) {
    const CpuTicks after = cpu_ticks();
    const auto ticks = static_cast<double>(after.total - before.total);
    steal.push_back(ticks > 0 ? static_cast<double>(after.steal - before.steal) / ticks : 0.0);
    total.sent += r.sent;
    total.ok += r.ok;
    total.failed += r.failed;
    total.seconds += load.seconds;
    total.backlog_max = std::max(total.backlog_max, r.backlog_max);
    total.latency_us.insert(total.latency_us.end(), r.latency_us.begin(), r.latency_us.end());
    total.late_us.insert(total.late_us.end(), r.late_us.begin(), r.late_us.end());

    const auto windows = static_cast<std::size_t>(load.seconds / kWindowSeconds + 1e-9);
    std::vector<double>& values = by_window.emplace_back();
    if (load.rate == 0.0) {
      for (std::size_t w = 0; w < windows; ++w) {
        values.push_back(static_cast<double>(r.ok_by_window[w]) / kWindowSeconds);
      }
      return;
    }
    std::vector<std::vector<double>> samples(windows);
    for (std::size_t i = 0; i < r.latency_us.size(); ++i) {
      const std::uint32_t w = r.latency_window[i];
      if (w < windows) samples[w].push_back(r.latency_us[i]);
    }
    for (const auto& window : samples) {
      if (!window.empty()) values.push_back(quantile(window, 0.5));
    }
  }

  /// The gated value: the median over the sub-windows of the segments the
  /// hypervisor stole least from (at most the phase's median steal share),
  /// so stolen stretches and short bursts of interference move the value
  /// little. Where nothing is stolen, every segment counts.
  [[nodiscard]] double value() const {
    const double most = median(steal);
    std::vector<double> kept;
    for (std::size_t s = 0; s < steal.size(); ++s) {
      if (steal[s] <= most) kept.insert(kept.end(), by_window[s].begin(), by_window[s].end());
    }
    return median(kept);
  }

  [[nodiscard]] std::string json() const {
    std::vector<double> flat;
    for (const auto& values : by_window) flat.insert(flat.end(), values.begin(), values.end());
    std::vector<double> steal_pct;
    for (const double share : steal) steal_pct.push_back(100.0 * share);
    return "{\"steal_pct_by_segment\":" + json_array(steal_pct) +
           ",\"by_window\":" + json_array(flat) + "}";
  }
};

/// The timed rounds, the reply gate and the end-to-end metrics.
/// `verify` lists the distinct predicts the workload sends; the gate uses a
/// uniform sample of them. `population` lists the windows the workload
/// draws its queries from; coverage_pct is the share of them (every k-th
/// past kCoverageWindows) that the served models answer.
void measure_serving(const Options& options, Server& server, const Traffic& traffic,
                     const std::vector<Traffic::Item>& verify,
                     const std::vector<Traffic::Item>& population, double heavy_rate,
                     Run& run) {
  const std::uint16_t port = server.port();
  const auto rounds =
      std::max<long>(1, static_cast<long>(options.seconds / kRoundSeconds + 1e-9));
  const double round_s = options.seconds / static_cast<double>(rounds);
  Phase closed, light, heavy;
  std::size_t start = 0;  // index of the next request line
  for (long r = 0; r < rounds; ++r) {
    for (auto [phase, rate, share] : {std::tuple{&closed, 0.0, kClosedShare},
                                      {&light, kLightRate, kLightShare},
                                      {&heavy, heavy_rate, kHeavyShare}}) {
      const LoadOptions load{.rate = rate, .seconds = share * round_s, .start = start};
      const CpuTicks before = cpu_ticks();
      const LoadResult result = drive(port, traffic.lines, load);
      phase->add(result, load, before);
      start += result.sent;
    }
  }
  report_phase(run, "closed_loop", closed.total);
  report_phase(run, "open_loop_light", light.total);
  report_phase(run, "open_loop_heavy", heavy.total);
  run.diagnostic("closed_loop_rate", closed.json());
  run.diagnostic("open_loop_light_p50_us", light.json());

  run.metric("throughput", closed.value(), "1/s", closed.total.ok);
  run.metric("lat_p50_us", light.value(), "us", light.total.latency_us.size());
  const serve::WindowCache::Stats cache = server.service->cache_stats();
  run.diagnostic("cache_hit_ratio", static_cast<double>(cache.hits) /
                                        static_cast<double>(cache.hits + cache.misses));

  // Gate: sampled predicts over one connection, each reply byte-identical
  // to to_json of LoadedModel::forecast (the cached flag aside).
  ef::util::Rng rng(options.seed ^ 0x7e57ed);
  std::vector<const Traffic::Item*> sample;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < kVerifyLines; ++i) {
    const Traffic::Item& item = verify[rng.index(verify.size())];
    sample.push_back(&item);
    lines.push_back(predict_line(traffic.models[item.model], item.window, i));
  }
  const std::vector<std::string> replies = replies_to(port, lines);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const auto model = server.store.get(traffic.models[sample[i]->model]);
    if (uncached(replies[i]) != expected_reply(*model, sample[i]->window, i)) ++mismatches;
  }
  run.attempted(sample.size());
  if (mismatches) {
    run.fail(std::to_string(mismatches) + " replies differ from LoadedModel::forecast",
             mismatches);
  }

  std::vector<double> actual;
  series::PartialForecast predicted;
  const std::size_t stride = (population.size() + kCoverageWindows - 1) / kCoverageWindows;
  for (std::size_t i = 0; i < population.size(); i += stride) {
    const Traffic::Item& item = population[i];
    actual.push_back(item.actual);
    predicted.push_back(
        server.store.get(traffic.models[item.model])->forecast(item.window).as_optional());
  }
  const auto report = series::evaluate_partial(actual, predicted);
  run.metric("coverage_pct", report.coverage_percent, "%", report.total);
  run.diagnostic("nmse", report.nmse);
  run.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
}

/// Servers of each set-up; the last one serves the timed phases. Earlier
/// ones are torn down only after all set-ups, so teardown is not timed.
using Servers = std::vector<std::unique_ptr<Server>>;

/// serve_compute / serve_cached: the table bench's Venice τ=24 model,
/// queried with windows of a fresh series from another generator seed.
void serve_venice(const Options& options, Run& run, Tracer& tracer, bool hot) {
  // Inputs, generated once: the model, saved as text, and the fresh series
  // it is queried with (both the same for every seed, so what a request
  // costs does not vary by seed); and the request stream, from the seed:
  // every window of the series in a seeded order, or kHotWindows of them.
  const PaperRow row = venice_row(kServedModelSeed, options.smoke);
  const Clock::time_point t0 = Clock::now();
  const core::TrainResult trained = core::train(row.train, {.config = row.config});
  const double train_s = seconds_since(t0);
  const std::string model_text = save_text(trained.system);

  ef::series::VeniceParams params;
  params.seed = 7919 + kServedModelSeed;
  const series::TimeSeries fresh = rounded(
      ef::series::generate_venice(options.smoke ? kSmokeFreshHours : kFreshHours, params), 2);
  const std::size_t window = row.train.window();
  const std::size_t lead = window - 1 + row.train.horizon();
  const std::size_t windows = fresh.size() - lead;
  std::vector<Traffic::Item> population;
  for (std::size_t i = 0; i < windows; ++i) {
    population.push_back({0, fresh.values().subspan(i, window), fresh[i + lead]});
  }
  ef::util::Rng rng(options.seed);
  std::vector<std::size_t> order(windows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = windows; i > 1; --i) std::swap(order[i - 1], order[rng.index(i)]);
  if (hot) order.resize(kHotWindows);
  Traffic traffic({kVeniceModel});
  for (const std::size_t i : order) traffic.predict(0, population[i].window, population[i].actual);

  // Set-up: from the saved model text to a started, warmed server.
  Servers servers;
  const std::vector<double> setup = set_up(options, [&] {
    std::istringstream in(model_text);
    auto& server = servers.emplace_back(std::make_unique<Server>());
    server->store.add_system(kVeniceModel, core::RuleSystem::load(in));
    server->start();
    if (hot) (void)replies_to(server->port(), traffic.lines);  // warm the cache
  });
  servers.erase(servers.begin(), servers.end() - 1);

  if (options.trace) {
    servers.clear();
    const core::WindowDataset heldout(
        fresh.slice(0, std::min(fresh.size(), kHeldoutWindows + lead)), window,
        row.train.horizon());
    Subject subject;
    subject.train_wall_s = train_s;
    subject.models.push_back({kVeniceModel, &row.train, &heldout, row.config, trained.system,
                              trained.executions,
                              executions_run(row.config, trained.executions)});
    for (std::size_t k = 0; subject.calls.size() < kReplayCalls; ++k) {
      const Traffic::Item& item = traffic.items[k % traffic.items.size()];
      subject.calls.push_back({0, item.window, item.actual});
    }
    trace_layers(subject, options, run, tracer);
    return;
  }
  run.metric("setup_s", median(setup), "s", setup.size());
  run.diagnostic("model_train_s", train_s);
  measure_serving(options, *servers.back(), traffic, traffic.items, population,
                  hot ? kHeavyRateCached : kHeavyRateCompute, run);
}

}  // namespace

void serve_compute(const Options& options, Run& run, Tracer& tracer) {
  serve_venice(options, run, tracer, /*hot=*/false);
}

void serve_cached(const Options& options, Run& run, Tracer& tracer) {
  serve_venice(options, run, tracer, /*hot=*/true);
}

void serve_fleet(const Options& options, Run& run, Tracer& tracer) {
  // Inputs, generated once: the fleet trained as train_fleet trains it (the
  // same for every seed), and the request stream (from the seed).
  const std::size_t series = options.smoke ? kSmokeServeFleetSeries : kServeFleetSeries;
  const fleet::FleetTrainOptions train_options = fleet_options(kServedModelSeed, options.smoke);
  const Fleet fleet = make_fleet(series, kServedModelSeed);
  const Clock::time_point t0 = Clock::now();
  const fleet::FleetTrainResult trained = fleet::train_fleet(fleet.train, train_options);
  const double train_s = seconds_since(t0);
  std::vector<std::string> ids;
  for (const fleet::TrainedSeries& model : trained.models) ids.push_back(model.id);

  // Model ids by Zipf(1.1) rank over a fixed permutation of the fleet (so
  // the hot models, and what they cost, are the same for every seed); each
  // predict asks for one of the series' unseen tail windows, and every
  // fourth is followed by an observe of its realized value.
  std::vector<std::size_t> by_rank(series);
  for (std::size_t i = 0; i < series; ++i) by_rank[i] = i;
  ef::util::Rng shuffle(kServedModelSeed);
  for (std::size_t i = series; i > 1; --i) std::swap(by_rank[i - 1], by_rank[shuffle.index(i)]);
  ef::util::Rng rng(options.seed);
  std::vector<double> cdf(series);
  double total = 0.0;
  for (std::size_t r = 0; r < series; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  Traffic traffic(ids);
  const std::size_t requests = options.smoke ? kFleetRequests / 10 : kFleetRequests;
  while (traffic.items.size() < requests) {
    const auto rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.uniform() * total) - cdf.begin());
    const std::size_t s = by_rank[std::min(rank, series - 1)];
    const core::WindowDataset& heldout = fleet.heldout[s];
    const std::size_t j = rng.index(heldout.count());
    traffic.predict(s, heldout.pattern(j), heldout.target(j));
    if (traffic.items.size() % 5 == 4) traffic.observe(s, heldout.target(j));
  }

  // Set-up: pack the fleet into a .efr v2 container, attach it, start.
  const std::string path =
      options.workdir + "/serve_fleet-" + std::to_string(::getpid()) + ".efr";
  Servers servers;
  const std::vector<double> setup = set_up(options, [&] {
    fleet::FleetWriter writer;
    for (const fleet::TrainedSeries& model : trained.models) {
      writer.add(model.id, model.system);
    }
    writer.write_file(path);
    auto& server = servers.emplace_back(std::make_unique<Server>());
    server->store.attach_container(path);
    server->start();
  });
  servers.erase(servers.begin(), servers.end() - 1);

  if (options.trace) {
    servers.clear();
    std::vector<core::WindowDataset> train_sets;
    train_sets.reserve(series);
    Subject subject;
    subject.train_wall_s = train_s;
    subject.container = true;
    for (std::size_t i = 0; i < series; ++i) {
      train_sets.emplace_back(fleet.train[i].series, train_options.window,
                              train_options.horizon, train_options.stride);
      core::RuleSystemConfig config = train_options.config;
      config.evolution.seed = trained.models[i].seed;
      subject.models.push_back({ids[i], &train_sets[i], &fleet.heldout[i], config,
                                trained.models[i].system, trained.models[i].executions,
                                trained.models[i].executions});
    }
    for (const Traffic::Item& item : traffic.items) {
      if (subject.calls.size() == kReplayCalls) break;
      if (!item.observe) subject.calls.push_back({item.model, item.window, item.actual});
    }
    trace_layers(subject, options, run, tracer);
  } else {
    run.metric("setup_s", median(setup), "s", setup.size());
    run.diagnostic("model_train_s", train_s);
    std::vector<Traffic::Item> distinct;
    for (std::size_t s = 0; s < series; ++s) {
      for (std::size_t j = 0; j < fleet.heldout[s].count(); ++j) {
        distinct.push_back({s, fleet.heldout[s].pattern(j), fleet.heldout[s].target(j)});
      }
    }
    // Untimed warm-up: the first pass through the stream materialises the
    // models it asks for and fills the cache, once in a server's life; the
    // timed rounds measure the steady state that follows.
    (void)replies_to(servers.back()->port(), traffic.lines);
    measure_serving(options, *servers.back(), traffic, distinct, distinct, kHeavyRateFleet,
                    run);
    servers.clear();
  }
  std::filesystem::remove(path);
}

}  // namespace evobench
