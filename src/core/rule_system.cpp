#include "core/rule_system.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/evolution.hpp"
#include "core/match_backend.hpp"
#include "obs/macros.hpp"
#include "obs/timeline.hpp"
#include "util/function_ref.hpp"
#include "util/rng.hpp"

namespace ef::core {
namespace {

/// Prediction-time metrics shared by every aggregation path: request and
/// abstention counts plus the fan-in histogram make the paper's
/// "percentage of prediction" observable live instead of post-hoc.
inline void note_prediction(std::size_t votes) {
  EVOFORECAST_COUNT("predict.requests", 1);
  if (votes == 0) {
    EVOFORECAST_COUNT("predict.abstentions", 1);
  } else {
    EVOFORECAST_HISTOGRAM("predict.fan_in", votes);
  }
#if !EVOFORECAST_OBS_ENABLED
  (void)votes;
#endif
}

/// One window's Prediction from the ascending indices of the rules voting
/// on it — the tail every forecast path shares, and the one place votes are
/// built. The bound is derived from the same votes the value came from.
Prediction predict(std::span<const Rule> rules, std::span<const std::size_t> voters,
                   std::span<const double> window, Aggregation how) {
  thread_local std::vector<Vote> votes;
  votes.clear();
  for (const std::size_t r : voters) votes.push_back(vote_of(rules[r], window));
  note_prediction(votes.size());
  Prediction out;
  out.votes = votes.size();
  const auto value = aggregate_votes(votes, how);
  out.abstained = !value.has_value();
  if (value) {
    out.value = *value;
    out.bound = vote_bound(votes, *value);
  }
  return out;
}

/// Value range spanned by the rule set's non-wildcard genes — the byte map
/// of the compiled planes. nullopt when no gene bounds exist (all wildcard
/// or empty system) or they collapse to one value.
std::optional<std::pair<double, double>> gene_value_range(std::span<const Rule> rules) {
  bool seen = false;
  double lo = 0.0;
  double hi = 0.0;
  for (const Rule& rule : rules) {
    for (const Interval& gene : rule.genes()) {
      if (gene.is_wildcard()) continue;
      if (!seen) {
        lo = gene.lo();
        hi = gene.hi();
        seen = true;
      } else {
        lo = std::min(lo, gene.lo());
        hi = std::max(hi, gene.hi());
      }
    }
  }
  if (!seen || !(hi > lo)) return std::nullopt;
  return std::make_pair(lo, hi);
}

/// Windows per kernel call. Bounds the per-thread scratch below (one match
/// list per rule, one voter list per window), which lives as long as its
/// thread, whatever range the caller asks for: with 256 a 372-rule coverage
/// scan left ~1 MB on every pool worker.
constexpr std::size_t kVoteBlock = 64;

/// Per-thread scratch of the match helper, reused across calls so a
/// single-window forecast allocates nothing once warm.
struct VoterScratch {
  std::vector<std::vector<std::size_t>> matched;  ///< per rule: block-relative windows
  std::vector<std::vector<std::size_t>> voters;   ///< per window of the block: rules
  std::vector<std::uint8_t> qrows;                ///< the block through the planes' map
};

/// The one match path of every rule-set query: windows [begin, end) of the
/// row-major `rows` (planes.window lags each) run through the rule-major
/// kernel in blocks, and each window's matching rules reach `emit` as
/// ascending rule indices — the paper's match set, in the order its votes
/// are aggregated.
void for_each_voter_set(
    const RulePlanes& planes, const double* rows, std::size_t begin, std::size_t end,
    util::FunctionRef<void(std::size_t, std::span<const std::size_t>)> emit) {
  thread_local VoterScratch s;
  const std::size_t d = planes.window;
  if (s.matched.size() < planes.rule_count) s.matched.resize(planes.rule_count);
  if (s.voters.size() < kVoteBlock) s.voters.resize(kVoteBlock);
  for (std::size_t b = begin; b < end; b += kVoteBlock) {
    const std::size_t n = std::min(end - b, kVoteBlock);
    const double* block = rows + b * d;
    s.qrows.resize(n * d);
    for (std::size_t k = 0; k < n * d; ++k) {
      s.qrows[k] = quantize_value(block[k], planes.qmin, planes.qinv);
    }
    LagMajorView view{};
    view.count = n;
    view.window = d;
    view.rows = block;
    view.qrows = s.qrows.data();
    for (std::size_t r = 0; r < planes.rule_count; ++r) s.matched[r].clear();
    for (std::size_t i = 0; i < n; ++i) s.voters[i].clear();
    matchkern::rule_major_match(view, planes, 0, n, s.matched);
    for (std::size_t r = 0; r < planes.rule_count; ++r) {
      for (const std::size_t i : s.matched[r]) s.voters[i].push_back(r);
    }
    for (std::size_t i = 0; i < n; ++i) emit(b + i, s.voters[i]);
  }
}

}  // namespace

void RuleSystem::add_rules(std::vector<Rule> rules, bool discard_unfit, double f_min) {
  for (Rule& rule : rules) {
    if (!rule.predicting()) continue;  // nothing to predict with
    if (discard_unfit && rule.fitness() <= f_min) continue;
    rules_.push_back(std::move(rule));
  }
}

Prediction RuleSystem::forecast(std::span<const double> window, Aggregation how) const {
  return forecast(compile_planes(window.size()), window, how);
}

RulePlanes RuleSystem::compile_planes(std::size_t window) const {
  // Any monotone byte map keeps the byte test a superset of the exact one;
  // spreading the genes' own range over all 256 levels keeps it selective.
  // Degenerate ranges collapse to the identity-0 map: every byte test
  // passes, exact verification decides.
  const auto range = gene_value_range(rules_);
  const double qmin = range ? range->first : 0.0;
  const double qinv = range ? 255.0 / (range->second - range->first) : 0.0;
  std::vector<std::span<const Interval>> genes(rules_.size());
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    // Non-predicting or wrong-dimension rules become inactive lanes: they
    // never vote.
    if (rules_[r].predicting() && rules_[r].window() == window) genes[r] = rules_[r].genes();
  }
  return build_rule_planes(genes, window, qmin, qinv);
}

Prediction RuleSystem::forecast(const RulePlanes& planes, std::span<const double> window,
                                Aggregation how) const {
  if (planes.rule_count != rules_.size()) {
    throw std::invalid_argument("RuleSystem::forecast: planes of another rule system");
  }
  if (window.size() != planes.window) return forecast(window, how);
  Prediction out;
  for_each_voter_set(planes, window.data(), 0, 1,
                     [&](std::size_t, std::span<const std::size_t> voters) {
                       out = predict(rules_, voters, window, how);
                     });
  return out;
}

std::vector<std::size_t> RuleSystem::voters(std::span<const double> window) const {
  std::vector<std::size_t> out;
  for_each_voter_set(compile_planes(window.size()), window.data(), 0, 1,
                     [&](std::size_t, std::span<const std::size_t> voters) {
                       out.assign(voters.begin(), voters.end());
                     });
  return out;
}

std::vector<Prediction> RuleSystem::forecast_batch(std::span<const double> flat_windows,
                                                   std::size_t window, Aggregation how,
                                                   util::ThreadPool* pool) const {
  if (window == 0) {
    throw std::invalid_argument("RuleSystem::forecast_batch: window must be > 0");
  }
  if (flat_windows.size() % window != 0) {
    throw std::invalid_argument(
        "RuleSystem::forecast_batch: flat_windows.size() not a multiple of window");
  }
  const std::size_t n = flat_windows.size() / window;
  EVOFORECAST_COUNT("predict.batch.calls", 1);
  EVOFORECAST_HISTOGRAM("predict.batch.windows", n);

  std::vector<Prediction> out(n);
  if (n == 0) return out;
  const RulePlanes planes = compile_planes(window);
  util::ThreadPool& tp = pool ? *pool : util::ThreadPool::shared();
  tp.parallel_for(
      0, n,
      [&](std::size_t begin, std::size_t end) {
        for_each_voter_set(planes, flat_windows.data(), begin, end,
                           [&](std::size_t i, std::span<const std::size_t> voters) {
                             out[i] = predict(rules_, voters,
                                              flat_windows.subspan(i * window, window), how);
                           });
      },
      /*grain=*/16);
  return out;
}

series::PartialForecast RuleSystem::forecast_dataset(const WindowDataset& data,
                                                     util::ThreadPool* pool) const {
  return forecast_dataset(data, Aggregation::kMean, pool);
}

series::PartialForecast RuleSystem::forecast_dataset(const WindowDataset& data,
                                                     Aggregation how,
                                                     util::ThreadPool* pool) const {
  const obs::Span span("core.forecast_dataset");
  series::PartialForecast out(data.count());
  const RulePlanes planes = compile_planes(data.window());
  util::ThreadPool& tp = pool ? *pool : util::ThreadPool::shared();
  tp.parallel_for(0, data.count(), [&](std::size_t begin, std::size_t end) {
    for_each_voter_set(planes, data.lag_major().rows, begin, end,
                       [&](std::size_t i, std::span<const std::size_t> voters) {
                         out[i] = predict(rules_, voters, data.pattern(i), how).as_optional();
                       });
  });
  return out;
}

double RuleSystem::coverage_percent(const WindowDataset& data, util::ThreadPool* pool) const {
  const obs::Span span("core.coverage_scan");
  if (data.count() == 0) return 0.0;
  EVOFORECAST_COUNT("coverage.scans", 1);
  EVOFORECAST_COUNT("coverage.windows_tested", data.count());
  std::atomic<std::size_t> covered{0};
  const RulePlanes planes = compile_planes(data.window());
  util::ThreadPool& tp = pool ? *pool : util::ThreadPool::shared();
  tp.parallel_for(0, data.count(), [&](std::size_t begin, std::size_t end) {
    std::size_t local = 0;
    for_each_voter_set(planes, data.lag_major().rows, begin, end,
                       [&](std::size_t, std::span<const std::size_t> voters) {
                         local += voters.empty() ? 0 : 1;
                       });
    covered.fetch_add(local, std::memory_order_relaxed);
  });
  return 100.0 * static_cast<double>(covered.load()) / static_cast<double>(data.count());
}

void RuleSystem::save(std::ostream& out) const {
  out << "evoforecast-rules v1\n" << rules_.size() << '\n';
  out.precision(17);
  for (const Rule& rule : rules_) {
    out << rule.window();
    for (const auto& gene : rule.genes()) {
      if (gene.is_wildcard()) {
        out << " * *";
      } else {
        out << ' ' << gene.lo() << ' ' << gene.hi();
      }
    }
    const auto& part = rule.predicting();
    if (!part) throw std::logic_error("RuleSystem::save: unevaluated rule");
    out << ' ' << part->fit.coeffs.size();
    for (const double c : part->fit.coeffs) out << ' ' << c;
    out << ' ' << part->fit.max_abs_residual << ' ' << part->fit.mean_prediction << ' '
        << (part->fit.degenerate ? 1 : 0) << ' ' << part->matches << ' ' << part->fitness
        << '\n';
  }
}

RuleSystem RuleSystem::load(std::istream& in) {
  // Hard limits against corrupt or hostile input: the declared counts are
  // validated *before* any allocation sized by them (no allocation bomb),
  // and every floating-point field must be finite (a NaN gene or coefficient
  // would poison every forecast downstream). Generous bounds: real unions
  // are ~10^2-10^3 rules with D ≤ 24.
  constexpr std::size_t kMaxRules = 1'000'000;
  constexpr std::size_t kMaxWindow = 4096;
  constexpr std::size_t kMaxCoeffs = kMaxWindow + 1;

  std::string header;
  std::getline(in, header);
  if (header != "evoforecast-rules v1") {
    throw std::runtime_error("RuleSystem::load: bad header '" + header + "'");
  }
  std::size_t count = 0;
  if (!(in >> count)) throw std::runtime_error("RuleSystem::load: missing rule count");
  if (count > kMaxRules) {
    throw std::runtime_error("RuleSystem::load: rule count " + std::to_string(count) +
                             " exceeds limit " + std::to_string(kMaxRules));
  }

  RuleSystem system;
  // Bounded up-front reservation; a truncated payload with a huge declared
  // count fails while parsing, not while allocating.
  system.rules_.reserve(std::min<std::size_t>(count, 4096));
  for (std::size_t r = 0; r < count; ++r) {
    std::size_t window = 0;
    if (!(in >> window)) throw std::runtime_error("RuleSystem::load: truncated rule header");
    if (window == 0 || window > kMaxWindow) {
      throw std::runtime_error("RuleSystem::load: window size " + std::to_string(window) +
                               " out of [1, " + std::to_string(kMaxWindow) + "]");
    }

    std::vector<Interval> genes;
    genes.reserve(window);
    for (std::size_t j = 0; j < window; ++j) {
      std::string lo_text;
      std::string hi_text;
      if (!(in >> lo_text >> hi_text)) {
        throw std::runtime_error("RuleSystem::load: truncated genes");
      }
      if (lo_text == "*" && hi_text == "*") {
        genes.push_back(Interval::wildcard());
      } else {
        try {
          const double lo = std::stod(lo_text);
          const double hi = std::stod(hi_text);
          if (!std::isfinite(lo) || !std::isfinite(hi)) {
            throw std::runtime_error("non-finite gene bound");
          }
          genes.emplace_back(lo, hi);  // Interval rejects lo > hi
        } catch (const std::exception& e) {
          throw std::runtime_error(std::string("RuleSystem::load: bad gene: ") + e.what());
        }
      }
    }

    PredictingPart part;
    std::size_t n_coeffs = 0;
    if (!(in >> n_coeffs)) throw std::runtime_error("RuleSystem::load: truncated coeffs");
    if (n_coeffs > kMaxCoeffs) {
      throw std::runtime_error("RuleSystem::load: coefficient count " +
                               std::to_string(n_coeffs) + " exceeds limit " +
                               std::to_string(kMaxCoeffs));
    }
    part.fit.coeffs.resize(n_coeffs);
    for (double& c : part.fit.coeffs) {
      if (!(in >> c)) throw std::runtime_error("RuleSystem::load: truncated coeffs");
      if (!std::isfinite(c)) {
        throw std::runtime_error("RuleSystem::load: non-finite coefficient");
      }
    }
    int degenerate = 0;
    if (!(in >> part.fit.max_abs_residual >> part.fit.mean_prediction >> degenerate >>
          part.matches >> part.fitness)) {
      throw std::runtime_error("RuleSystem::load: truncated stats");
    }
    if (!std::isfinite(part.fit.max_abs_residual) || !std::isfinite(part.fit.mean_prediction) ||
        !std::isfinite(part.fitness)) {
      throw std::runtime_error("RuleSystem::load: non-finite rule stats");
    }
    part.fit.degenerate = degenerate != 0;

    Rule rule{std::move(genes)};
    rule.set_predicting(std::move(part));
    system.rules_.push_back(std::move(rule));
  }
  return system;
}

void RuleSystem::merge(const RuleSystem& other) {
  rules_.insert(rules_.end(), other.rules_.begin(), other.rules_.end());
}

void RuleSystem::describe(std::ostream& out, std::size_t top_n) const {
  // Sort indices by fitness descending.
  std::vector<std::size_t> order(rules_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rules_[a].fitness() > rules_[b].fitness();
  });
  const std::size_t shown = top_n == 0 ? order.size() : std::min(top_n, order.size());

  out << "RuleSystem: " << rules_.size() << " rules (showing " << shown << ")\n";
  out << "  rank  fitness   matches  max-err   prediction  spec\n";
  for (std::size_t k = 0; k < shown; ++k) {
    const Rule& rule = rules_[order[k]];
    const auto& part = *rule.predicting();
    out << "  " << k + 1 << "\t" << part.fitness << "\t" << part.matches << "\t"
        << part.error() << "\t" << part.prediction() << "\t" << rule.specificity() << "/"
        << rule.window() << "\n";
  }
}

namespace {

/// Union one finished execution's population into `result` (paper §3.4) and
/// publish it: the executions counter, both gauges and the train.execution
/// event. Returns whether the union now meets the coverage target.
bool union_execution(TrainResult& result, std::vector<Rule> population,
                     const WindowDataset& train, const RuleSystemConfig& config,
                     util::ThreadPool* pool, [[maybe_unused]] const char* schedule) {
  result.system.add_rules(std::move(population), config.discard_unfit, config.evolution.f_min);
  ++result.executions;
  EVOFORECAST_COUNT("train.executions", 1);
  result.train_coverage_percent = result.system.coverage_percent(train, pool);
  result.coverage_per_execution.push_back(result.train_coverage_percent);
  EVOFORECAST_GAUGE_SET("train.coverage_percent", result.train_coverage_percent);
  EVOFORECAST_GAUGE_SET("train.rules_union_size", result.system.size());
  EVOFORECAST_EVENT("train.execution", {"schedule", schedule}, {"execution", result.executions},
                    {"coverage_percent", result.train_coverage_percent},
                    {"rules", result.system.size()});
  return result.train_coverage_percent >= config.coverage_target_percent;
}

}  // namespace

TrainResult extend_rule_system(const RuleSystem& existing, const WindowDataset& train,
                               const RuleSystemConfig& config, util::ThreadPool* pool) {
  const obs::Span span("core.train.extend", obs::kRoot);
  config.validate();

  SteadyStateEngine engine(train, config.evolution,
                           std::vector<Rule>(existing.rules()), pool);
  engine.run();

  TrainResult result;
  result.executions_run = 1;
  union_execution(result, std::vector<Rule>(engine.population()), train, config, pool, "extend");
  return result;
}

namespace {

/// The multi-execution outer loop under either schedule. Lanes claim
/// executions in seed order and union finished ones strictly in that order,
/// so every lane count yields the sequential result: the shortest prefix of
/// executions whose union meets the coverage target. Once a prefix does, the
/// stop flag ends running executions at their next generation and nothing
/// further starts. A lane claims execution j only while j is less than
/// `lanes` past the unioned prefix, so at most lanes − 1 executions beyond
/// the used prefix ever start.
///
/// Sequential: one lane on the calling thread, evaluating on the caller's
/// pool with the caller's telemetry. Islands: one lane per pool worker (at
/// most one per execution), each evaluating serially on a single-worker
/// sentinel pool so a worker never blocks on a nested parallel_for.
TrainResult run_executions(const WindowDataset& train, const RuleSystemConfig& config,
                           util::ThreadPool* pool, const TelemetrySink& telemetry,
                           bool islands) {
  static util::ThreadPool inline_pool(1);
  util::ThreadPool& tp = pool ? *pool : util::ThreadPool::shared();
  const std::size_t total = config.max_executions;
  const std::size_t lanes = islands ? std::min(total, tp.size()) : 1;
  util::ThreadPool* lane_pool = islands ? &inline_pool : pool;
  const char* schedule = islands ? "islands" : "sequential";

  // The first execution uses the configured seed verbatim (reproducing a
  // single-run experiment exactly); later ones fork from it.
  util::Rng seeder(config.evolution.seed);
  std::vector<std::uint64_t> seeds(total);
  for (std::size_t exec = 0; exec < total; ++exec) {
    seeds[exec] = exec == 0 ? config.evolution.seed : seeder();
  }

  TrainResult result;
  std::atomic<bool> stop{false};
  std::mutex mutex;  // guards result, next, finished and first_error
  std::condition_variable claimable;
  std::size_t next = 0;
  std::vector<std::optional<std::vector<Rule>>> finished(total);
  std::exception_ptr first_error;

  // Caller holds `mutex`. The next execution in order, or nullopt once the
  // loop is over; waits while the claim would run too far past the prefix.
  const auto claim = [&](std::unique_lock<std::mutex>& lock) -> std::optional<std::size_t> {
    claimable.wait(lock, [&] {
      return stop.load() || next >= total || next < result.executions + lanes;
    });
    if (stop.load() || next >= total) return std::nullopt;
    ++result.executions_run;
    return next++;
  };
  // Caller holds `mutex`. Unions the finished executions that extend the
  // prefix, stopping every lane once the target is met.
  const auto commit = [&] {
    while (!stop.load() && result.executions < total && finished[result.executions]) {
      std::vector<Rule> population = std::move(*finished[result.executions]);
      finished[result.executions].reset();
      if (union_execution(result, std::move(population), train, config, lane_pool, schedule)) {
        stop.store(true);
      }
    }
    claimable.notify_all();
  };

  // Execution spans open under the caller's trace context so island
  // executions land in the same timeline despite the thread hop.
  const obs::TraceContext trace_ctx = obs::current_context();
  const auto lane = [&] {
    std::unique_lock lock(mutex);
    while (const std::optional<std::size_t> exec = claim(lock)) {
      lock.unlock();
      obs::Span execution_span("core.train.execution", trace_ctx);
      try {
        EvolutionConfig run_config = config.evolution;
        run_config.seed = seeds[*exec];
        SteadyStateEngine engine(train, run_config, lane_pool, telemetry);
        if (engine.run(&stop)) {
          execution_span.set_arg("execution", static_cast<double>(*exec + 1));
          std::vector<Rule> population = engine.population();
          lock.lock();
          finished[*exec] = std::move(population);
          commit();
        } else {
          execution_span.set_arg("cancelled", static_cast<double>(*exec + 1));
          EVOFORECAST_COUNT("train.executions_cancelled", 1);
          lock.lock();
        }
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        if (!first_error) first_error = std::current_exception();
        stop.store(true);
        claimable.notify_all();
      }
    }
  };

  if (lanes == 1) {
    lane();
  } else {
    tp.parallel_for(
        0, lanes,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) lane();
        },
        /*grain=*/1);
  }
  if (first_error) std::rethrow_exception(first_error);
  return result;
}

}  // namespace

TrainResult train(const WindowDataset& data, const TrainOptions& options) {
  // Root span of the whole training run: execution and generation spans
  // nest under it (a child span when a request trace is already active).
  const obs::Span span("core.train", obs::kRoot);
  RuleSystemConfig config = options.config;
  if (options.seed) config.evolution.seed = *options.seed;
  config.validate();

  TrainParallelism mode = options.parallelism;
  if (mode == TrainParallelism::kAuto) {
    util::ThreadPool& tp = options.pool ? *options.pool : util::ThreadPool::shared();
    const bool islands_help =
        config.max_executions > 1 && tp.size() > 1 && !options.telemetry;
    mode = islands_help ? TrainParallelism::kIslands : TrainParallelism::kSequential;
  }
  if (mode == TrainParallelism::kIslands && options.telemetry) {
    throw std::invalid_argument(
        "train: telemetry is not supported with TrainParallelism::kIslands (interleaved "
        "records from concurrent islands would be unordered)");
  }
  return run_executions(data, config, options.pool, options.telemetry,
                        mode == TrainParallelism::kIslands);
}

}  // namespace ef::core
