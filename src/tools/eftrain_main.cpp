// eftrain — fleet-scale bulk trainer, `.efr` v2 container packer, and
// corpus runner in one operator-facing binary.
//
// Modes (exactly one per invocation):
//   --by-series DATA     train one rule system per series. DATA is either a
//                        long-format CSV (`series_id,timestamp,value`) or a
//                        dataset directory (one single-column CSV per
//                        series, id = file stem).
//   --synthetic N        train over a generated N-series fleet (sine / AR /
//                        regime-switch mix, deterministic in --seed).
//   --pack DIR           no training: pack every v1 `*.efr` under DIR into
//                        a v2 container (id = file stem). Requires --out.
//   --list FILE          print the index of a v2 container.
//   --extract ID         write one series of --container FILE back out as
//                        v1 text (--out PATH, default stdout) — the
//                        bit-identity bridge between the two formats.
//
// Training modes accept --out fleet.efr2 (pack the trained fleet),
// and --evaluate (rolling-origin corpus scoring: per-series + pooled errors
// and fleet-wide percentage of prediction). Container timings (open, find,
// materialise) are evobench's fleet.container.* layer metrics
// (bench/evobench/README.md).
//
// Embedding/evolution flags mirror the library defaults:
//   --window D --horizon T --stride S --population P --generations G
//   --emax E --coverage-target PCT --max-executions K --seed S
// Fleet shaping: --limit K (first K series), --length L (synthetic),
// --threads N (private pool; default = shared pool), --holdout FRAC /
// --min-holdout K (corpus split). Observability: --report, --metrics-json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/rule_system.hpp"
#include "fleet/bulk_trainer.hpp"
#include "fleet/container.hpp"
#include "fleet/corpus.hpp"
#include "fleet/long_csv.hpp"
#include "obs/export.hpp"
#include "series/synthetic.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
/// Deterministic synthetic fleet: a sine / AR(2) / regime-switch rotation
/// with per-series parameter drift, so the fleet exercises heterogeneous
/// dynamics rather than 1000 copies of one signal. Ids are zero-padded so
/// lexicographic (container index) order equals generation order.
std::vector<ef::fleet::SeriesRecord> synthetic_fleet(std::size_t count, std::size_t length,
                                                     std::uint64_t seed) {
  std::vector<ef::fleet::SeriesRecord> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    char id[32];
    std::snprintf(id, sizeof(id), "synthetic-%06zu", i);
    const std::uint64_t series_seed = seed + 0x51ed270b * static_cast<std::uint64_t>(i) + 1;
    ef::series::TimeSeries series;
    switch (i % 3) {
      case 0: {
        ef::series::SineParams p;
        p.amplitude = 0.6 + 0.05 * static_cast<double>(i % 9);
        p.period = 8.0 + static_cast<double>(i % 37);
        p.phase = 0.1 * static_cast<double>(i % 63);
        p.noise_sd = 0.02;
        p.seed = series_seed;
        series = ef::series::generate_sine(length, p);
        break;
      }
      case 1: {
        ef::series::ArParams p;
        p.phi = {0.55 + 0.06 * static_cast<double>(i % 5),
                 -0.1 - 0.04 * static_cast<double>(i % 4)};
        p.noise_sd = 0.3;
        p.seed = series_seed;
        series = ef::series::generate_ar(length, p);
        break;
      }
      default: {
        ef::series::RegimeSwitchParams p;
        p.mean_dwell = 40.0 + static_cast<double>(i % 30);
        p.regimes = {{1.0, 16.0 + static_cast<double>(i % 11)},
                     {2.0 + 0.1 * static_cast<double>(i % 7), 7.0}};
        p.noise_sd = 0.05;
        p.seed = series_seed;
        series = ef::series::generate_regime_switch(length, p);
        break;
      }
    }
    fleet.push_back({id, std::move(series)});
  }
  return fleet;
}

/// Mean packed size of one model (0 for an empty container).
double bytes_per_model(const ef::fleet::FleetReader& reader) {
  return reader.empty() ? 0.0
                        : static_cast<double>(reader.bytes()) / static_cast<double>(reader.size());
}

int run_list(const std::string& path) {
  const auto reader = ef::fleet::FleetReader::open(path);
  std::printf("%s: %zu models, %zu bytes\n", path.c_str(), reader.size(), reader.bytes());
  for (std::size_t i = 0; i < reader.size(); ++i) {
    const auto id = reader.id_at(i);
    std::printf("  %-32.*s %6zu rules\n", static_cast<int>(id.size()), id.data(),
                reader.rule_count_at(i));
  }
  return 0;
}

int run_extract(const std::string& container_path, const std::string& id,
                const std::string& out_path) {
  const auto reader = ef::fleet::FleetReader::open(container_path);
  const auto system = reader.materialize(id);
  if (!system) {
    std::fprintf(stderr, "eftrain: series '%s' not found in %s\n", id.c_str(),
                 container_path.c_str());
    return 2;
  }
  if (out_path.empty()) {
    system->save(std::cout);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "eftrain: cannot write %s\n", out_path.c_str());
      return 2;
    }
    system->save(out);
  }
  return 0;
}

int run_pack(const std::string& dir, const std::string& out_path) {
  if (out_path.empty()) {
    std::fprintf(stderr, "eftrain: --pack requires --out CONTAINER\n");
    return 2;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".efr") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "eftrain: no *.efr files under %s\n", dir.c_str());
    return 2;
  }
  ef::fleet::FleetWriter writer;
  for (const fs::path& file : files) {
    std::ifstream in(file);
    if (!in) throw std::runtime_error("cannot open " + file.string());
    writer.add(file.stem().string(), ef::core::RuleSystem::load(in));
  }
  writer.write_file(out_path);
  const auto packed = ef::fleet::FleetReader::open(out_path);
  std::printf("packed %zu models (%zu bytes, %.1f bytes/model) -> %s\n", packed.size(),
              packed.bytes(), bytes_per_model(packed), out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ef::util::Cli cli(argc, argv);
  try {
    // ---- single-file modes (no training) ------------------------------
    if (cli.has("list")) return run_list(cli.get_string("list", ""));
    if (cli.has("extract")) {
      const std::string container = cli.get_string("container", "");
      if (container.empty()) {
        std::fprintf(stderr, "eftrain: --extract requires --container FILE\n");
        return 2;
      }
      return run_extract(container, cli.get_string("extract", ""),
                         cli.get_string("out", ""));
    }
    if (cli.has("pack")) {
      return run_pack(cli.get_string("pack", ""), cli.get_string("out", ""));
    }

    // ---- training configuration --------------------------------------
    ef::fleet::FleetTrainOptions train_options;
    train_options.window = static_cast<std::size_t>(cli.get_int("window", 6));
    train_options.horizon = static_cast<std::size_t>(cli.get_int("horizon", 1));
    train_options.stride = static_cast<std::size_t>(cli.get_int("stride", 1));
    auto& config = train_options.config;
    config.evolution.population_size =
        static_cast<std::size_t>(cli.get_int("population", 40));
    config.evolution.generations =
        static_cast<std::size_t>(cli.get_int("generations", 800));
    config.evolution.emax = cli.get_double("emax", 0.1);
    config.evolution.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    config.coverage_target_percent = cli.get_double("coverage-target", 90.0);
    config.max_executions = static_cast<std::size_t>(cli.get_int("max-executions", 2));
    config.validate();

    std::unique_ptr<ef::util::ThreadPool> private_pool;
    const auto threads = static_cast<std::size_t>(cli.get_int("threads", 0));
    if (threads > 0) {
      private_pool = std::make_unique<ef::util::ThreadPool>(threads);
      train_options.pool = private_pool.get();
    }

    // ---- load the fleet -----------------------------------------------
    std::vector<ef::fleet::SeriesRecord> fleet;
    if (cli.has("synthetic")) {
      fleet = synthetic_fleet(static_cast<std::size_t>(cli.get_int("synthetic", 100)),
                              static_cast<std::size_t>(cli.get_int("length", 200)),
                              config.evolution.seed);
    } else if (cli.has("by-series")) {
      const std::string data = cli.get_string("by-series", "");
      fleet = fs::is_directory(data) ? ef::fleet::read_series_directory(data)
                                     : ef::fleet::read_long_csv(data);
    } else {
      std::fprintf(stderr,
                   "usage: eftrain --by-series DATA | --synthetic N | --pack DIR "
                   "| --list FILE | --extract ID --container FILE\n"
                   "  (see docs/FLEET.md for the full flag reference)\n");
      return 2;
    }
    const auto limit = static_cast<std::size_t>(cli.get_int("limit", 0));
    if (limit > 0 && fleet.size() > limit) fleet.resize(limit);
    std::printf("fleet: %zu series\n", fleet.size());

    // ---- train --------------------------------------------------------
    const auto result = ef::fleet::train_fleet(fleet, train_options);
    const double models_per_sec =
        result.wall_seconds > 0.0
            ? static_cast<double>(result.trained) / result.wall_seconds
            : 0.0;
    std::printf("trained %zu/%zu series in %.2fs (%.1f models/s, %zu rules",
                result.trained, fleet.size(), result.wall_seconds, models_per_sec,
                result.total_rules);
    if (result.skipped > 0) std::printf(", %zu skipped", result.skipped);
    std::printf(")\n");
    for (const auto& model : result.models) {
      if (model.skipped) {
        std::fprintf(stderr, "  skipped %s: %s\n", model.id.c_str(),
                     model.skip_reason.c_str());
      }
    }

    // ---- pack ---------------------------------------------------------
    const std::string out_path = cli.get_string("out", "");
    if (!out_path.empty()) {
      ef::fleet::FleetWriter writer;
      for (const auto& model : result.models) {
        if (!model.skipped) writer.add(model.id, model.system);
      }
      writer.write_file(out_path);
      const auto container = ef::fleet::FleetReader::open(out_path);
      std::printf("container: %s (%zu models, %zu bytes, %.1f bytes/model)\n",
                  out_path.c_str(), container.size(), container.bytes(),
                  bytes_per_model(container));
    }

    // ---- evaluate -----------------------------------------------------
    if (cli.get_bool("evaluate")) {
      ef::fleet::CorpusOptions corpus_options;
      corpus_options.train = train_options;
      corpus_options.holdout_fraction = cli.get_double("holdout", 0.2);
      corpus_options.min_holdout =
          static_cast<std::size_t>(cli.get_int("min-holdout", 4));
      const auto corpus = ef::fleet::evaluate_fleet(fleet, corpus_options);
      std::printf(
          "corpus: %zu evaluated, %zu skipped | pooled rmse %.4f mae %.4f | "
          "%% of prediction %.1f (%zu/%zu points) in %.2fs\n",
          corpus.evaluated, corpus.skipped, corpus.pooled_rmse, corpus.pooled_mae,
          corpus.percentage_of_prediction, corpus.covered_points, corpus.total_points,
          corpus.wall_seconds);
    }

    if (!cli.get_string("metrics-json", "").empty()) {
      ef::obs::write_json_file(cli.get_string("metrics-json", ""));
    }
    if (cli.get_bool("report")) ef::obs::print_report();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eftrain: %s\n", e.what());
    return 2;
  }
}
