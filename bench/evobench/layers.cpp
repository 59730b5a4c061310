#include "layers.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/crossover.hpp"
#include "core/crowding.hpp"
#include "core/fitness.hpp"
#include "core/init.hpp"
#include "core/match_engine.hpp"
#include "core/mutation.hpp"
#include "core/regression.hpp"
#include "core/selection.hpp"
#include "fleet/container.hpp"
#include "serve/model_store.hpp"
#include "serve/protocol.hpp"
#include "serve/window_cache.hpp"
#include "loopback.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace evobench {
namespace {

using ef::util::ThreadPool;

/// Models whose execution 0 is replayed; fleets are sampled, the paper rows
/// and the served model are all covered.
constexpr std::size_t kSampleModels = 100;
constexpr std::size_t kRoundTrips = 2000;
constexpr std::size_t kFindSamples = 20000;
constexpr std::size_t kMaterializeSamples = 256;

/// Regress-and-score of one matched rule: what Evaluator::evaluate does
/// after matching (core/fitness.cpp), from the public pieces.
core::PredictingPart score(const core::WindowDataset& data,
                           const std::vector<std::size_t>& matched,
                           const core::EvolutionConfig& config) {
  core::PredictingPart part;
  part.matches = matched.size();
  if (matched.empty()) {
    part.fit.coeffs.assign(data.window() + 1, 0.0);
    part.fit.max_abs_residual = config.emax;
    part.fit.degenerate = true;
    part.fitness = config.f_min;
  } else {
    part.fit = core::fit_hyperplane(data, matched);
    part.fitness = core::fitness_value(part.matches, part.fit.max_abs_residual, config.emax,
                                       config.f_min);
  }
  return part;
}

struct EvolutionSites {
  int replay, init, selection, crossover, mutation, match, regression, crowding;
};

struct EvolutionCounts {
  double windows = 0, matched = 0, generated = 0, accepted = 0;
};

/// Execution 0 of SteadyStateEngine (core/evolution.cpp) rebuilt from the
/// public operators, one span per operator call.
std::vector<core::Rule> replay_execution(const core::WindowDataset& data,
                                         const core::EvolutionConfig& config, ThreadPool& one,
                                         Tracer& tracer, const EvolutionSites& s,
                                         EvolutionCounts& n) {
  tracer.begin_trace();
  const Tracer::Scope root(tracer, s.replay);
  const core::MatchEngine engine(data, &one,
                                 core::resolve_match_backend(config.match_backend));
  ef::util::Rng rng(config.seed);
  const auto evaluate = [&](core::Rule& rule) {
    std::vector<std::size_t> matched;
    {
      const Tracer::Scope span(tracer, s.match);
      matched = engine.match_indices(rule);
    }
    n.windows += static_cast<double>(data.count());
    n.matched += static_cast<double>(matched.size());
    const Tracer::Scope span(tracer, s.regression);
    rule.set_predicting(score(data, matched, config));
  };

  std::vector<core::Rule> population;
  {
    const Tracer::Scope span(tracer, s.init);
    population = core::initialize_population(data, config, rng);
  }
  for (core::Rule& rule : population) evaluate(rule);
  for (std::size_t g = 0; g < config.generations; ++g) {
    core::ParentPair parents{};
    {
      const Tracer::Scope span(tracer, s.selection);
      parents = core::select_parents(population, config.tournament_rounds, rng);
    }
    core::Rule offspring;
    {
      const Tracer::Scope span(tracer, s.crossover);
      offspring =
          core::uniform_crossover(population[parents.first], population[parents.second], rng);
    }
    {
      const Tracer::Scope span(tracer, s.mutation);
      core::mutate_rule(offspring, data, config, rng);
    }
    evaluate(offspring);
    std::size_t victim = 0;
    {
      const Tracer::Scope span(tracer, s.crowding);
      victim = core::choose_victim(population, offspring, config, data, rng);
    }
    ++n.generated;
    if (offspring.fitness() > population[victim].fitness()) {
      population[victim] = std::move(offspring);
      ++n.accepted;
    }
  }
  return population;
}

/// What one span costs: many opened and closed on a separate tracer, most
/// of them past the per-trace cap, as in the evolution replay.
double span_cost_s() {
  constexpr std::size_t kSpans = 200000;
  Tracer calibration;
  const int site = calibration.site("calibration");
  calibration.begin_trace();
  const Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope root(calibration, site);
    for (std::size_t i = 0; i < kSpans; ++i) const Tracer::Scope span(calibration, site);
  }
  return seconds_since(t0) / static_cast<double>(kSpans + 1);
}

/// Execution 0 of each sampled model, replayed operator by operator on one
/// worker. The trainer unions executions in order, so the replayed
/// population, added as the trainer adds it, must be the first rules of the
/// workload's own system. Later executions are not replayed: they repeat
/// execution 0's operators with other seeds, and replaying them would more
/// than double a traced run.
void trace_training(const Subject& subject, ThreadPool& one, Run& run, Tracer& tracer) {
  double used = 0.0;
  double ran = 0.0;
  for (const Subject::Model& m : subject.models) {
    used += static_cast<double>(m.executions_used);
    ran += static_cast<double>(m.executions_run);
  }
  run.metric("core.train.executions_run", ran, "count", subject.models.size());
  run.metric("core.train.executions_used", used, "count", subject.models.size());
  run.metric("core.train.island_yield", used / ran, "ratio", subject.models.size());

  const EvolutionSites s{tracer.site("core.evolution.replay"), tracer.site("core.init"),
                         tracer.site("core.selection"),        tracer.site("core.crossover"),
                         tracer.site("core.mutation"),         tracer.site("core.match"),
                         tracer.site("core.regression"),       tracer.site("core.crowding")};
  const int s_coverage = tracer.site("core.coverage");
  const int s_dataset = tracer.site("core.forecast_dataset");
  EvolutionCounts n;
  std::vector<double> execution_ms;
  double used_work_s = 0.0;  // execution time x executions used, over the sample
  const std::size_t count = std::min(subject.models.size(), kSampleModels);
  for (std::size_t i = 0; i < count; ++i) {
    const Subject::Model& m = subject.models[i];
    const double f_min = m.config.evolution.f_min;
    const double before = tracer.total_s(s.replay);
    std::vector<core::Rule> population =
        replay_execution(*m.train, m.config.evolution, one, tracer, s, n);
    const double seconds = tracer.total_s(s.replay) - before;
    execution_ms.push_back(seconds * 1e3);
    used_work_s += seconds * static_cast<double>(m.executions_used);

    core::RuleSystem first;
    first.add_rules(std::move(population), m.config.discard_unfit, f_min);
    const std::vector<core::Rule>& rules = m.system.rules();
    core::RuleSystem prefix;
    prefix.add_rules({rules.begin(), rules.begin() + static_cast<std::ptrdiff_t>(
                                                         std::min(first.size(), rules.size()))},
                     /*discard_unfit=*/false, f_min);
    run.attempted(1);
    if (first.size() > rules.size() || save_text(first) != save_text(prefix)) {
      run.fail("core replay of " + m.id + " differs from the workload's execution 0");
    }

    tracer.begin_trace();
    {
      const Tracer::Scope span(tracer, s_coverage);
      (void)m.system.coverage_percent(*m.train, &one);
    }
    const Tracer::Scope span(tracer, s_dataset);
    (void)m.system.forecast_dataset(*m.heldout, &one);
  }

  for (const auto& [name, site] :
       {std::pair{"core.init.s", s.init}, {"core.selection.s", s.selection},
        {"core.crossover.s", s.crossover}, {"core.mutation.s", s.mutation},
        {"core.match.s", s.match}, {"core.regression.s", s.regression},
        {"core.crowding.s", s.crowding}}) {
    run.metric(name, tracer.total_s(site), "s", tracer.count(site));
  }
  run.metric("core.match.windows", n.windows, "count", tracer.count(s.match));
  run.metric("core.match.hit_ratio", n.windows > 0 ? n.matched / n.windows : 0.0, "ratio",
             tracer.count(s.match));
  // Every matched window is a row of the rule's regression.
  run.metric("core.regression.rows", n.matched, "count", tracer.count(s.regression));
  run.metric("core.evolution.accept_ratio", n.generated > 0 ? n.accepted / n.generated : 0.0,
             "ratio", static_cast<std::size_t>(n.generated));

  run.metric("core.train.execution_ms.p50", quantile(execution_ms, 0.5), "ms", count);
  run.metric("core.train.execution_ms.p99", quantile(execution_ms, 0.99), "ms", count);
  // The single-worker time of the executions the union kept, taking each to
  // cost what its model's execution 0 did, against the pool's capacity over
  // the workload's training wall time.
  const double serial_s = used_work_s / static_cast<double>(count) *
                          static_cast<double>(subject.models.size());
  const auto workers = static_cast<double>(ThreadPool::shared().size());
  run.metric("core.train.parallel_efficiency", serial_s / (subject.train_wall_s * workers),
             "ratio", count);
  run.metric("core.coverage.s", tracer.total_s(s_coverage), "s", tracer.count(s_coverage));
  run.metric("core.forecast_dataset.s", tracer.total_s(s_dataset), "s",
             tracer.count(s_dataset));

  // The spans' own cost as a share of the replay without them.
  std::size_t spans = 0;
  for (const int site : {s.replay, s.init, s.selection, s.crossover, s.mutation, s.match,
                         s.regression, s.crowding}) {
    spans += tracer.count(site);
  }
  const double spans_s = static_cast<double>(spans) * span_cost_s();
  run.metric("bench.trace_overhead_pct", 100.0 * spans_s / (tracer.total_s(s.replay) - spans_s),
             "%", spans);
}

[[nodiscard]] bool same(const core::Prediction& a, const core::Prediction& b) {
  return a.abstained == b.abstained && a.votes == b.votes &&
         (a.abstained || (a.value == b.value && a.bound == b.bound));
}

/// Forecast paths on the replay windows. Returns the per-call mean of the
/// rule-index path (the one the service uses).
double trace_forecast(const Subject& subject,
                      const std::vector<std::shared_ptr<const serve::LoadedModel>>& loaded,
                      Run& run, Tracer& tracer) {
  const int s_root = tracer.site("core.forecast.replay");
  const int s_index = tracer.site("core.rule_index.forecast");
  const int s_system = tracer.site("core.rule_system.forecast");
  const int s_batch = tracer.site("core.rule_system.forecast_batch");
  std::vector<core::Prediction> reference;
  reference.reserve(subject.calls.size());
  double votes = 0.0;
  double abstained = 0.0;
  std::size_t mismatches = 0;
  tracer.begin_trace();
  {
    const Tracer::Scope root(tracer, s_root);
    for (const Subject::Call& call : subject.calls) {
      core::Prediction indexed;
      {
        const Tracer::Scope span(tracer, s_index);
        indexed = loaded[call.model]->forecast(call.window);
      }
      core::Prediction scanned;
      {
        const Tracer::Scope span(tracer, s_system);
        scanned = subject.models[call.model].system.forecast(call.window);
      }
      if (!same(indexed, scanned)) ++mismatches;
      votes += static_cast<double>(scanned.votes);
      abstained += scanned.abstained ? 1.0 : 0.0;
      reference.push_back(scanned);
    }
    // Batched path: each model's windows in one forecast_batch call.
    std::vector<std::vector<std::size_t>> by_model(subject.models.size());
    for (std::size_t k = 0; k < subject.calls.size(); ++k) {
      by_model[subject.calls[k].model].push_back(k);
    }
    for (std::size_t m = 0; m < by_model.size(); ++m) {
      if (by_model[m].empty()) continue;
      std::vector<double> flat;
      const std::size_t window = subject.calls[by_model[m].front()].window.size();
      for (const std::size_t k : by_model[m]) {
        const std::span<const double> w = subject.calls[k].window;
        flat.insert(flat.end(), w.begin(), w.end());
      }
      std::vector<core::Prediction> batch;
      {
        const Tracer::Scope span(tracer, s_batch);
        batch = subject.models[m].system.forecast_batch(flat, window);
      }
      for (std::size_t j = 0; j < batch.size(); ++j) {
        if (!same(batch[j], reference[by_model[m][j]])) ++mismatches;
      }
    }
  }
  const std::size_t n = subject.calls.size();
  run.attempted(n);
  if (mismatches) {
    run.fail("forecast paths disagree on " + std::to_string(mismatches) + " windows",
             mismatches);
  }
  const double per_call = 1e6 / static_cast<double>(n);
  const double index_us = tracer.total_s(s_index) * per_call;
  run.metric("core.rule_index.forecast_us", index_us, "us", n);
  run.metric("core.rule_system.forecast_us", tracer.total_s(s_system) * per_call, "us", n);
  run.metric("core.rule_system.forecast_batch_us", tracer.total_s(s_batch) * per_call, "us",
             n);
  run.metric("core.forecast.votes_mean", votes / static_cast<double>(n), "count", n);
  run.metric("core.forecast.abstain_ratio", abstained / static_cast<double>(n), "ratio", n);
  return index_us;
}

void trace_container(const Subject& subject, const std::string& path, Run& run) {
  ef::fleet::FleetWriter writer;
  for (const Subject::Model& m : subject.models) writer.add(m.id, m.system);
  const Clock::time_point t0 = Clock::now();
  writer.write_file(path);
  run.metric("fleet.container.write_s", seconds_since(t0), "s", 1);
  const auto bytes = static_cast<double>(std::filesystem::file_size(path));
  run.metric("fleet.container.bytes_per_model", bytes / static_cast<double>(writer.size()),
             "B", writer.size());

  std::vector<double> open_us;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t = Clock::now();
    const auto probe = ef::fleet::FleetReader::open(path);
    open_us.push_back(micros_between(t, Clock::now()));
  }
  run.metric("fleet.container.open_us", median(open_us), "us", open_us.size());

  const auto reader = ef::fleet::FleetReader::open(path);
  ef::util::Rng rng(0x5eed);
  std::vector<double> find_ns;
  for (std::size_t i = 0; i < kFindSamples; ++i) {
    const std::string& id = subject.models[rng.index(subject.models.size())].id;
    const Clock::time_point t = Clock::now();
    const auto slot = reader.find(id);
    find_ns.push_back(micros_between(t, Clock::now()) * 1e3);
    if (!slot) run.fail("container lookup lost " + id);
  }
  run.metric("fleet.container.find_ns.p50", median(find_ns), "ns", find_ns.size());

  std::vector<double> materialize_us;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < subject.models.size(); ++i) {
    const Subject::Model& m = subject.models[i];
    const Clock::time_point t = Clock::now();
    const auto system = reader.materialize(m.id);
    if (i < kMaterializeSamples) materialize_us.push_back(micros_between(t, Clock::now()));
    if (!system || save_text(*system) != save_text(m.system)) ++mismatches;
  }
  run.attempted(subject.models.size());
  if (mismatches) {
    run.fail("container round trip changed " + std::to_string(mismatches) + " models",
             mismatches);
  }
  run.metric("fleet.container.materialize_us.p50", median(materialize_us), "us",
             materialize_us.size());
}

/// A server holding the subject's models: by name, or through the
/// container at `path`.
std::unique_ptr<Server> serving(const Subject& subject, const std::string& path, bool listen) {
  auto server = std::make_unique<Server>();
  if (subject.container) {
    server->store.attach_container(path);
  } else {
    for (const Subject::Model& m : subject.models) server->store.add_system(m.id, m.system);
  }
  server->start(listen);
  return server;
}

void trace_serving(const Subject& subject, const std::string& path, double forecast_us,
                   Run& run, Tracer& tracer) {
  const int s_request = tracer.site("serve.request");
  const int s_parse = tracer.site("serve.protocol.parse");
  const int s_get = tracer.site("serve.model_store.get");
  const int s_cache_get = tracer.site("serve.window_cache.get");
  const int s_cache_put = tracer.site("serve.window_cache.put");
  const int s_predict = tracer.site("serve.service.predict");
  const int s_serialize = tracer.site("serve.protocol.serialize");
  const int s_observe = tracer.site("serve.quality.observe");
  const auto elapsed_us = [&](int site, double before) {
    return (tracer.total_s(site) - before) * 1e6;
  };

  const std::unique_ptr<Server> local = serving(subject, path, /*listen=*/false);
  serve::ForecastService& service = *local->service;

  // Cold model: the first get of a container series materialises it; a
  // named model is built once by LoadedModel::make.
  std::vector<double> materialize_us;
  std::vector<bool> seen(subject.models.size(), false);
  for (const Subject::Call& call : subject.calls) {
    if (seen[call.model] || materialize_us.size() >= kMaterializeSamples) continue;
    seen[call.model] = true;
    const Subject::Model& m = subject.models[call.model];
    core::RuleSystem copy = m.system;
    const Clock::time_point t = Clock::now();
    if (subject.container) {
      (void)local->store.get(m.id);
    } else {
      (void)serve::LoadedModel::make(std::move(copy), m.id, 1, 1);
    }
    materialize_us.push_back(micros_between(t, Clock::now()));
  }

  serve::WindowCache cache(service.options().cache);
  std::vector<double> in_process_us;  // parse + predict + serialize, per request
  double wait_us = 0.0;
  std::size_t misses = 0;
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < subject.calls.size(); ++k) {
    const Subject::Call& call = subject.calls[k];
    const Subject::Model& m = subject.models[call.model];
    const std::string line = predict_line(m.id, call.window, k);
    tracer.begin_trace();
    const Tracer::Scope root(tracer, s_request);
    const double parse0 = tracer.total_s(s_parse);
    const double get0 = tracer.total_s(s_get);
    const double cache0 = tracer.total_s(s_cache_get) + tracer.total_s(s_cache_put);
    const double predict0 = tracer.total_s(s_predict);
    const double serialize0 = tracer.total_s(s_serialize);

    serve::ProtocolError error;
    std::optional<serve::Request> request;
    {
      const Tracer::Scope span(tracer, s_parse);
      request = serve::parse_request(std::string_view(line).substr(0, line.size() - 1), error);
    }
    if (!request) {
      run.fail("replay line rejected: " + error.message);
      continue;
    }
    std::shared_ptr<const serve::LoadedModel> model;
    {
      const Tracer::Scope span(tracer, s_get);
      model = local->store.get(m.id);
    }
    std::optional<serve::WindowCache::Value> hit;
    serve::WindowCache::Key key;
    {
      const Tracer::Scope span(tracer, s_cache_get);
      key = cache.make_key(model->tag(), 1, core::Aggregation::kMean, call.window);
      hit = cache.get(key);
    }
    if (!hit) {
      const core::Prediction p = model->forecast(call.window);
      const Tracer::Scope span(tracer, s_cache_put);
      cache.put(std::move(key), {p.abstained, p.value, static_cast<std::uint32_t>(p.votes),
                                 p.abstained ? -1.0 : p.bound});
    }
    serve::PredictResponse response;
    {
      const Tracer::Scope span(tracer, s_predict);
      response = service.predict(request->predict);
    }
    std::string reply;
    {
      const Tracer::Scope span(tracer, s_serialize);
      reply = serve::to_json(response, *request);
    }
    if (uncached(reply) != expected_reply(*model, call.window, k)) ++mismatches;
    const double predict_us = elapsed_us(s_predict, predict0);
    in_process_us.push_back(elapsed_us(s_parse, parse0) + predict_us +
                            elapsed_us(s_serialize, serialize0));
    if (!hit) {
      // A miss also misses the service's identically configured cache, so
      // what predict spent beyond lookup, cache and forecast was batching.
      wait_us += predict_us - elapsed_us(s_get, get0) -
                 (tracer.total_s(s_cache_get) + tracer.total_s(s_cache_put) - cache0) * 1e6 -
                 forecast_us;
      ++misses;
    }
    if (k % 4 == 3) {
      const Tracer::Scope span(tracer, s_observe);
      (void)service.quality()->observe(m.id, call.actual);
    }
  }
  const std::size_t n = subject.calls.size();
  run.attempted(n);
  if (mismatches) {
    run.fail("in-process replies differ on " + std::to_string(mismatches) + " requests",
             mismatches);
  }

  const auto per_call = [&](const char* name, int site) {
    const std::size_t calls = std::max<std::size_t>(1, tracer.count(site));
    run.metric(name, tracer.total_s(site) * 1e6 / static_cast<double>(calls), "us", calls);
  };
  per_call("serve.protocol.parse_us", s_parse);
  per_call("serve.protocol.serialize_us", s_serialize);
  per_call("serve.model_store.get_us", s_get);
  run.metric("serve.model_store.materialize_us", mean(materialize_us), "us",
             materialize_us.size());
  per_call("serve.window_cache.get_us", s_cache_get);
  per_call("serve.window_cache.put_us", s_cache_put);
  const serve::WindowCache::Stats stats = service.cache_stats();
  run.metric("serve.window_cache.hit_ratio",
             static_cast<double>(stats.hits) / static_cast<double>(stats.hits + stats.misses),
             "ratio", static_cast<std::size_t>(stats.hits + stats.misses));
  per_call("serve.service.predict_us", s_predict);
  run.metric("serve.batcher.wait_us", misses ? wait_us / static_cast<double>(misses) : 0.0,
             "us", misses);
  per_call("serve.quality.observe_us", s_observe);

  // Transport: the same first requests, one at a time over loopback to a
  // fresh server (so cache hits and misses repeat), minus the in-process
  // cost of the same requests.
  const std::unique_ptr<Server> wire = serving(subject, path, /*listen=*/true);
  const std::size_t trips = std::min(n, kRoundTrips);
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < trips; ++k) {
    const Subject::Call& call = subject.calls[k];
    lines.push_back(predict_line(subject.models[call.model].id, call.window, k));
  }
  const std::vector<double> rtt = round_trips(wire->port(), lines);
  run.attempted(trips);
  const std::vector<double> first(in_process_us.begin(),
                                  in_process_us.begin() + static_cast<std::ptrdiff_t>(trips));
  run.metric("serve.reactor.transport_us", mean(rtt) - mean(first), "us", trips);
}

}  // namespace

void trace_layers(const Subject& subject, const Options& options, Run& run, Tracer& tracer) {
  ThreadPool one(1);
  trace_training(subject, one, run, tracer);

  std::vector<std::shared_ptr<const serve::LoadedModel>> loaded;
  for (std::size_t i = 0; i < subject.models.size(); ++i) {
    const Subject::Model& m = subject.models[i];
    loaded.push_back(serve::LoadedModel::make(m.system, m.id, 1, i + 1));
  }
  const double forecast_us = trace_forecast(subject, loaded, run, tracer);

  const std::string path =
      options.workdir + "/evobench-" + std::to_string(::getpid()) + ".efr";
  trace_container(subject, path, run);
  trace_serving(subject, path, forecast_us, run, tracer);
  std::filesystem::remove(path);
}

}  // namespace evobench
