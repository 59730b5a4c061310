// rule_system.hpp — the final predictor: a union of evolved rule sets
// (paper §3.4).
//
// "After each execution the solutions obtained … are added to the obtained
// in previous executions. The number of executions is determined by the
// percentage of the search space covered by the rules." At query time every
// matching rule votes with its hyperplane output and the system answers with
// the mean; windows matched by no rule are abstentions, reported through
// std::optional. Coverage percentage is the paper's headline secondary
// metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/aggregation.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/match_backend.hpp"
#include "core/prediction.hpp"
#include "core/rule.hpp"
#include "core/telemetry.hpp"
#include "series/metrics.hpp"
#include "util/thread_pool.hpp"

namespace ef::core {

class RuleSystem {
 public:
  RuleSystem() = default;

  /// Add a population's rules. When `discard_unfit` is set, rules whose
  /// fitness is <= `f_min` (never matched, or error >= EMAX) are dropped —
  /// they carry no usable predicting part. Unevaluated rules are always
  /// dropped.
  void add_rules(std::vector<Rule> rules, bool discard_unfit, double f_min);

  [[nodiscard]] std::size_t size() const noexcept { return rules_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rules_.empty(); }
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return rules_; }

  /// Forecast for one window (paper §3.4: matching rules vote with their
  /// hyperplane outputs; kMean is the paper's aggregation, others are
  /// Ablation D). The returned Prediction carries the value, the vote count
  /// and the abstention flag in one place. Compiles the planes for
  /// window.size() lags on every call and runs the forecast below over them;
  /// for many windows compile once (serve::LoadedModel) or use
  /// forecast_batch / forecast_dataset. Rules of another length never vote.
  [[nodiscard]] Prediction forecast(std::span<const double> window,
                                    Aggregation how = Aggregation::kMean) const;

  /// Compile the rule-major match planes for windows of length `window`:
  /// every rule's genes quantized through one byte map spanning the rule
  /// set's bounded gene values. Rules of another length become inactive
  /// lanes. Compile once per model and reuse for every single-window
  /// forecast below; the batch, dataset and coverage entries compile their
  /// own per call.
  [[nodiscard]] RulePlanes compile_planes(std::size_t window) const;

  /// Single-window forecast over planes compiled from this system by
  /// compile_planes — the serving path. A window whose length differs from
  /// planes.window goes through forecast(window, how), which compiles planes
  /// of its length. Throws std::invalid_argument when planes.rule_count !=
  /// size() (planes of another system).
  [[nodiscard]] Prediction forecast(const RulePlanes& planes, std::span<const double> window,
                                    Aggregation how = Aggregation::kMean) const;

  /// Ascending indices of the rules that vote on `window` — the match set
  /// every forecast entry aggregates, in its aggregation order (empty =
  /// abstention). Compiles planes per call, like forecast(window).
  [[nodiscard]] std::vector<std::size_t> voters(std::span<const double> window) const;

  /// Batched forecasts for `flat_windows.size() / window` row-major packed
  /// windows through the compiled planes, parallel over windows via `pool`
  /// (nullptr = shared pool). Element i equals
  /// forecast(flat_windows.subspan(i*window, window), how) exactly,
  /// including abstention positions and vote counts. Throws
  /// std::invalid_argument when window == 0 or flat_windows.size() is not a
  /// multiple of window.
  [[nodiscard]] std::vector<Prediction> forecast_batch(std::span<const double> flat_windows,
                                                       std::size_t window,
                                                       Aggregation how = Aggregation::kMean,
                                                       util::ThreadPool* pool = nullptr) const;

  /// Forecast every pattern of a dataset through the compiled planes;
  /// abstentions are nullopt. Parallel over patterns via `pool` (nullptr =
  /// shared pool).
  [[nodiscard]] series::PartialForecast forecast_dataset(
      const WindowDataset& data, util::ThreadPool* pool = nullptr) const;

  /// Dataset forecast under an alternative aggregation strategy.
  [[nodiscard]] series::PartialForecast forecast_dataset(
      const WindowDataset& data, Aggregation how, util::ThreadPool* pool = nullptr) const;

  /// Percentage of the dataset's patterns matched by at least one rule
  /// (compiled planes, like forecast_dataset).
  [[nodiscard]] double coverage_percent(const WindowDataset& data,
                                        util::ThreadPool* pool = nullptr) const;

  /// Text serialisation: one rule per line — genes, then the fitted
  /// coefficients and stats, fully restoring predictive behaviour on load.
  void save(std::ostream& out) const;
  [[nodiscard]] static RuleSystem load(std::istream& in);

  /// Human-readable summary: one line per rule (fitness-descending, at most
  /// `top_n`; 0 = all) with specificity, matches, error and prediction —
  /// the interpretability dividend of a Michigan population.
  void describe(std::ostream& out, std::size_t top_n = 10) const;

  /// Union with another system's rules (the §3.4 multi-execution union as a
  /// public operation — combine separately trained systems, e.g. from
  /// different horizons of the same τ or distributed training).
  void merge(const RuleSystem& other);

 private:
  std::vector<Rule> rules_;
};

/// Result of the coverage-driven outer training loop.
struct TrainResult {
  RuleSystem system;
  /// Executions unioned into `system` (the prefix that met the target).
  std::size_t executions = 0;
  /// Executions that began evolving: `executions` plus those the island
  /// schedule started and then cancelled once the prefix was enough (at most
  /// pool size − 1 of them). Equal to `executions` under kSequential.
  std::size_t executions_run = 0;
  double train_coverage_percent = 0.0;
  /// Coverage after each execution (monotonically non-decreasing).
  std::vector<double> coverage_per_execution;
};

/// How train() schedules the multi-execution outer loop.
enum class TrainParallelism {
  /// Islands when they can help (max_executions > 1, multi-worker pool, no
  /// telemetry sink), sequential otherwise. Both schedules produce exactly
  /// the same TrainResult apart from executions_run, so this is safe as the
  /// default.
  kAuto,
  /// One execution after another on `pool`; supports telemetry.
  kSequential,
  /// One island per pool worker: islands claim executions in seed order
  /// (each evaluates serially to avoid nested pool waits) and union them in
  /// that order until the coverage target is met, then cancel the executions
  /// still running at their next generation and start no more. Identical
  /// result to kSequential — wall-clock only, plus at most pool size − 1
  /// cancelled executions. Telemetry is rejected here: interleaved records
  /// from concurrent islands would be unordered.
  kIslands,
};

/// Everything train() needs besides the data. Aggregate — designated
/// initializers work: train(data, {.config = cfg, .parallelism = …}).
struct TrainOptions {
  RuleSystemConfig config;
  /// Worker pool (nullptr = ThreadPool::shared()).
  util::ThreadPool* pool = nullptr;
  TrainParallelism parallelism = TrainParallelism::kAuto;
  /// Per-generation sink; forces the sequential schedule under kAuto and
  /// throws std::invalid_argument when combined with kIslands.
  TelemetrySink telemetry = {};
  /// When set, overrides config.evolution.seed for this run (the config
  /// stays untouched — handy for seed sweeps over one shared config).
  std::optional<std::uint64_t> seed = std::nullopt;
};

/// Train a rule system: up to config.max_executions independent evolutions
/// (execution 0 uses the configured seed verbatim, later ones fork from it),
/// unioning the resulting populations until the training coverage target is
/// met (paper §3.4). The single entry point for both the sequential and the
/// island-parallel schedule — see TrainOptions.
[[nodiscard]] TrainResult train(const WindowDataset& data, const TrainOptions& options = {});

/// Incremental update (online learning extension): warm-start further
/// evolution from an existing system when new training data arrives. The
/// system's rules are re-evaluated on `train` (stale predicting parts are
/// refitted), evolved for `config.evolution.generations` more generations,
/// and the refreshed population replaces the old system's contents. Rules
/// whose window length no longer matches the data are dropped.
[[nodiscard]] TrainResult extend_rule_system(const RuleSystem& existing,
                                             const WindowDataset& train,
                                             const RuleSystemConfig& config,
                                             util::ThreadPool* pool = nullptr);

}  // namespace ef::core
