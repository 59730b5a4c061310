// inputs.hpp — everything the workloads generate from --seed: the paper's
// datasets and configs, the synthetic fleet, request lines, and the
// reference replies the serve gates compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dataset.hpp"
#include "core/rule_system.hpp"
#include "fleet/bulk_trainer.hpp"
#include "series/timeseries.hpp"
#include "serve/model_store.hpp"
#include "serve/reactor.hpp"
#include "serve/service.hpp"

namespace evobench {

/// Command-line settings every workload reads.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny scale that only proves the pipeline and the JSON shape.
  bool smoke = false;
  /// Directory for temporary files (the serve_fleet container).
  std::string workdir = ".";

  /// Set-ups per run; setup_s is their median. They take milliseconds, so
  /// fifteen cost little and steady the median. A traced run reports no
  /// setup_s and sets up once.
  [[nodiscard]] int setups() const noexcept { return smoke || trace ? 1 : 15; }
};

/// One paper-table row: its data and the rule-system config exactly as
/// src/experiments builds them, without the comparator models.
struct PaperRow {
  std::string name;
  core::WindowDataset train;
  core::WindowDataset validation;
  core::RuleSystemConfig config;
};

/// The seed of the served models: serve_compute and serve_cached always
/// serve the table bench's own Venice τ=24 model (372 rules), serve_fleet
/// always the same fleet. Their seed moves the request streams instead, so
/// model sizes and the models' coverage do not vary by seed.
inline constexpr std::uint64_t kServedModelSeed = 1;

/// Venice τ=24, sunspot τ=18, Mackey-Glass τ=50 and τ=85 at the benches'
/// default (scaled) sizes, on the paper's data. The seed is the evolution
/// seed, as the table benches' --seed is: seed 1 reproduces their defaults.
/// (The data stay fixed: other realisations of the synthetic series move
/// training time by ±30%, other evolution seeds by ±2%.)
[[nodiscard]] std::vector<PaperRow> paper_rows(std::uint64_t seed, bool smoke);
[[nodiscard]] PaperRow venice_row(std::uint64_t seed, bool smoke);

/// eftrain's defaults: D=6, pop 40, 800 generations, 2 executions.
[[nodiscard]] fleet::FleetTrainOptions fleet_options(std::uint64_t seed, bool smoke);

/// The synthetic fleet of `eftrain --synthetic` (a sine / AR(2) /
/// regime-switch rotation with per-series parameter drift), 200 points per
/// series, split into 160-point training prefixes and held-out datasets
/// whose windows target the last 40 points.
struct Fleet {
  std::vector<fleet::SeriesRecord> train;
  std::vector<core::WindowDataset> heldout;
};
[[nodiscard]] Fleet make_fleet(std::size_t count, std::uint64_t seed);

/// Executions core::train runs under the kAuto schedule on the shared
/// pool: every island when it uses islands, else the executions the union
/// kept (`used`).
[[nodiscard]] std::size_t executions_run(const core::RuleSystemConfig& config,
                                         std::size_t used);

/// RuleSystem::save text — what the digests and round-trip gates compare.
[[nodiscard]] std::string save_text(const core::RuleSystem& system);

/// Round every value to `decimals` places, as a client would send it, and
/// return the rounded series (the doubles the server will parse).
[[nodiscard]] series::TimeSeries rounded(const series::TimeSeries& s, int decimals);

/// A model store, the forecast service in front of it (serving defaults)
/// and, when listening, an epoll reactor on an ephemeral loopback port with
/// two shards (the load generator takes the other two cores). Members are
/// torn down in reverse order: reactor, then service, then store.
struct Server {
  serve::ModelStore store;
  std::optional<serve::ForecastService> service;
  std::optional<serve::Reactor> reactor;

  /// Start the service over the models already in `store`; with `listen`,
  /// also the reactor.
  void start(bool listen = true);
  [[nodiscard]] std::uint16_t port() const { return reactor->port(); }
};

/// v2 predict request line (newline-terminated) for `window`, id = `id`.
[[nodiscard]] std::string predict_line(const std::string& model,
                                       std::span<const double> window, std::size_t id);
/// v2 observe line reporting the realized `value` of `model`.
[[nodiscard]] std::string observe_line(const std::string& model, double value);
/// The reply the server must send for predict_line(model, window, id):
/// to_json of LoadedModel::forecast, uncached.
[[nodiscard]] std::string expected_reply(const serve::LoadedModel& model,
                                         std::span<const double> window, std::size_t id);
/// Replies to a request answered from the cache differ only in this flag.
[[nodiscard]] std::string uncached(std::string reply);

}  // namespace evobench
