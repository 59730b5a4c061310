#include "inputs.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "experiments/experiments.hpp"
#include "series/mackey_glass.hpp"
#include "series/sunspot.hpp"
#include "series/synthetic.hpp"
#include "series/venice.hpp"
#include "serve/protocol.hpp"
#include "util/thread_pool.hpp"

namespace evobench {
namespace {

constexpr std::size_t kSmokeDivisor = 20;

core::RuleSystemConfig rule_config(std::size_t population, std::size_t generations,
                                   double emax, std::uint64_t seed, double coverage_target,
                                   std::size_t max_executions, bool smoke) {
  core::RuleSystemConfig config;
  config.evolution.population_size = population;
  config.evolution.generations = smoke ? generations / kSmokeDivisor : generations;
  config.evolution.emax = emax;
  config.evolution.seed = seed;
  config.coverage_target_percent = coverage_target;
  config.max_executions = smoke ? 2 : max_executions;
  return config;
}

constexpr std::size_t kFleetLength = 200;
constexpr std::size_t kFleetTrainPoints = 160;

std::vector<fleet::SeriesRecord> synthetic_fleet(std::size_t count, std::uint64_t seed) {
  std::vector<fleet::SeriesRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "synthetic-%06zu", i);
    const std::uint64_t series_seed = seed + 0x51ed270b * static_cast<std::uint64_t>(i) + 1;
    series::TimeSeries s;
    switch (i % 3) {
      case 0: {
        ef::series::SineParams p;
        p.amplitude = 0.6 + 0.05 * static_cast<double>(i % 9);
        p.period = 8.0 + static_cast<double>(i % 37);
        p.phase = 0.1 * static_cast<double>(i % 63);
        p.noise_sd = 0.02;
        p.seed = series_seed;
        s = ef::series::generate_sine(kFleetLength, p);
        break;
      }
      case 1: {
        ef::series::ArParams p;
        p.phi = {0.55 + 0.06 * static_cast<double>(i % 5),
                 -0.1 - 0.04 * static_cast<double>(i % 4)};
        p.noise_sd = 0.3;
        p.seed = series_seed;
        s = ef::series::generate_ar(kFleetLength, p);
        break;
      }
      default: {
        ef::series::RegimeSwitchParams p;
        p.mean_dwell = 40.0 + static_cast<double>(i % 30);
        p.regimes = {{1.0, 16.0 + static_cast<double>(i % 11)},
                     {2.0 + 0.1 * static_cast<double>(i % 7), 7.0}};
        p.noise_sd = 0.05;
        p.seed = series_seed;
        s = ef::series::generate_regime_switch(kFleetLength, p);
        break;
      }
    }
    // Four decimals: the resolution a client sends, so the served windows
    // are exactly the values the models were trained on.
    out.push_back({id, rounded(s, 4)});
  }
  return out;
}

void append_number(std::string& out, double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

}  // namespace

PaperRow venice_row(std::uint64_t seed, bool smoke) {
  const ef::experiments::VeniceRowConfig c{.horizon = 24};
  const auto data = ef::series::make_paper_venice(c.train_hours, c.validation_hours);
  return PaperRow{"venice_t24", core::WindowDataset(data.train, c.window, c.horizon),
                  core::WindowDataset(data.validation, c.window, c.horizon),
                  rule_config(c.population, c.generations,
                              ef::experiments::venice_emax_schedule(c.horizon),
                              seed + c.horizon, c.coverage_target_percent, c.max_executions,
                              smoke)};
}

std::vector<PaperRow> paper_rows(std::uint64_t seed, bool smoke) {
  std::vector<PaperRow> rows;
  rows.push_back(venice_row(seed, smoke));

  const ef::experiments::SunspotRowConfig s{.horizon = 18};
  const auto spots = ef::series::make_paper_sunspots();
  rows.push_back({"sunspot_t18", core::WindowDataset(spots.train, s.window, s.horizon),
                  core::WindowDataset(spots.validation, s.window, s.horizon),
                  rule_config(s.population, s.generations,
                              ef::experiments::sunspot_emax_schedule(s.horizon),
                              seed + s.horizon, s.coverage_target_percent, s.max_executions,
                              smoke)});

  const auto mg = ef::series::make_paper_mackey_glass();
  for (const std::size_t horizon : {std::size_t{50}, std::size_t{85}}) {
    const ef::experiments::MackeyGlassRowConfig m{.horizon = horizon};
    rows.push_back({"mackey_glass_t" + std::to_string(horizon),
                    core::WindowDataset(mg.train, m.window, m.horizon, m.stride),
                    core::WindowDataset(mg.test, m.window, m.horizon, m.stride),
                    rule_config(m.population, m.generations, m.emax, seed + m.horizon,
                                m.coverage_target_percent, m.max_executions, smoke)});
  }
  return rows;
}

fleet::FleetTrainOptions fleet_options(std::uint64_t seed, bool smoke) {
  fleet::FleetTrainOptions options;
  options.window = 6;
  options.horizon = 1;
  options.config = rule_config(40, 800, 0.1, seed, 90.0, 2, smoke);
  return options;
}

Fleet make_fleet(std::size_t count, std::uint64_t seed) {
  Fleet out;
  const auto all = synthetic_fleet(count, seed);
  const fleet::FleetTrainOptions shape = fleet_options(seed, false);
  const std::size_t lead = (shape.window - 1) * shape.stride + shape.horizon;
  out.train.reserve(all.size());
  out.heldout.reserve(all.size());
  for (const fleet::SeriesRecord& record : all) {
    out.train.push_back({record.id, record.series.slice(0, kFleetTrainPoints)});
    out.heldout.emplace_back(record.series.slice(kFleetTrainPoints - lead, kFleetLength),
                             shape.window, shape.horizon, shape.stride);
  }
  return out;
}

std::size_t executions_run(const core::RuleSystemConfig& config, std::size_t used) {
  const bool islands = config.max_executions > 1 && ef::util::ThreadPool::shared().size() > 1;
  return islands ? config.max_executions : used;
}

std::string save_text(const core::RuleSystem& system) {
  std::ostringstream out;
  system.save(out);
  return out.str();
}

series::TimeSeries rounded(const series::TimeSeries& s, int decimals) {
  const double scale = std::pow(10.0, decimals);
  std::vector<double> values;
  values.reserve(s.size());
  for (const double v : s.values()) values.push_back(std::round(v * scale) / scale);
  return series::TimeSeries(std::move(values), s.name());
}

void Server::start(bool listen) {
  serve::ServeOptions options;
  options.port = 0;
  options.reactor_threads = 2;
  service.emplace(store, std::move(options));
  if (listen) {
    reactor.emplace(*service);
    reactor->start();
  }
}

std::string predict_line(const std::string& model, std::span<const double> window,
                         std::size_t id) {
  std::string line = R"({"v":2,"id":)" + std::to_string(id) + R"(,"model":")" + model +
                     R"(","window":[)";
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (i) line += ',';
    append_number(line, window[i]);
  }
  line += "]}\n";
  return line;
}

std::string observe_line(const std::string& model, double value) {
  std::string line = R"({"v":2,"cmd":"observe","model":")" + model + R"(","value":)";
  append_number(line, value);
  line += "}\n";
  return line;
}

std::string expected_reply(const serve::LoadedModel& model, std::span<const double> window,
                           std::size_t id) {
  const core::Prediction p = model.forecast(window);
  serve::PredictResponse response;
  response.ok = true;
  response.model = model.name();
  response.version = model.version();
  response.abstain = p.abstained;
  response.value = p.value;
  response.bound = p.abstained ? -1.0 : p.bound;
  response.votes = p.votes;
  serve::Request request;
  request.version = 2;
  request.id_json = std::to_string(id);
  return serve::to_json(response, request);
}

std::string uncached(std::string reply) {
  static const std::string kCached = R"("cached":true})";
  if (reply.size() >= kCached.size() &&
      reply.compare(reply.size() - kCached.size(), kCached.size(), kCached) == 0) {
    reply.replace(reply.size() - kCached.size(), kCached.size(), R"("cached":false})");
  }
  return reply;
}

}  // namespace evobench
