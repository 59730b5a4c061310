#include "fleet/bulk_trainer.hpp"

#include <chrono>
#include <exception>

#include "core/dataset.hpp"
#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::fleet {

std::uint64_t derive_series_seed(std::uint64_t base_seed, std::string_view id) {
  // FNV-1a 64-bit over the id bytes, offset by the base seed…
  std::uint64_t h = 14695981039346656037ull ^ base_seed;
  for (const char c : id) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  // …then a splitmix64 finalizer so near-identical ids diverge fully.
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

FleetTrainResult train_fleet(std::span<const SeriesRecord> fleet,
                             const FleetTrainOptions& options) {
  const obs::Span root_span("fleet.train", obs::kRoot);
  const auto start = std::chrono::steady_clock::now();

  FleetTrainResult result;
  result.models.resize(fleet.size());

  // Inner trainings run on a single-worker sentinel pool: its parallel_for
  // executes inline on the calling (outer pool) thread, so outer workers
  // never wait on a nested dispatch — the same inversion train_islands
  // uses. The across-series loop is where the cores go.
  static util::ThreadPool inline_pool(1);
  util::ThreadPool& tp = options.pool ? *options.pool : util::ThreadPool::shared();
  tp.parallel_for(
      0, fleet.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const SeriesRecord& record = fleet[i];
          TrainedSeries& out = result.models[i];
          out.id = record.id;
          out.seed = derive_series_seed(options.config.evolution.seed, record.id);
          obs::Span span("fleet.train_series", root_span.context());
          span.set_arg("series", static_cast<double>(i));
          try {
            const core::WindowDataset data(record.series, options.window, options.horizon,
                                           options.stride);
            core::TrainOptions train_options;
            train_options.config = options.config;
            train_options.pool = &inline_pool;
            train_options.parallelism = core::TrainParallelism::kSequential;
            train_options.seed = out.seed;
            core::TrainResult trained = core::train(data, train_options);
            out.system = std::move(trained.system);
            out.executions = trained.executions;
            out.train_coverage_percent = trained.train_coverage_percent;
            EVOFORECAST_COUNT("fleet.series_trained", 1);
          } catch (const std::exception& e) {
            // Too short for one pattern, degenerate values, bad config for
            // this particular series — record and move on.
            out.skipped = true;
            out.skip_reason = e.what();
            EVOFORECAST_COUNT("fleet.series_skipped", 1);
          }
        }
      },
      /*grain=*/1);

  for (const TrainedSeries& model : result.models) {
    if (model.skipped) {
      ++result.skipped;
    } else {
      ++result.trained;
      result.total_rules += model.system.size();
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EVOFORECAST_GAUGE_SET("fleet.last_train_seconds", result.wall_seconds);
  EVOFORECAST_EVENT("fleet.train", {"series", fleet.size()}, {"trained", result.trained},
                    {"skipped", result.skipped}, {"rules", result.total_rules},
                    {"seconds", result.wall_seconds});
  return result;
}

}  // namespace ef::fleet
