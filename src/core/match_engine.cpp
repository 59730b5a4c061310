#include "core/match_engine.hpp"

#include <chrono>

#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::core {
namespace {

constexpr std::size_t kParallelGrain = 4096;

#if EVOFORECAST_OBS_ENABLED
/// Records the wall time of one engine call into the histogram of the
/// backend that served it. Histogram names must be string literals.
class BackendTimer {
 public:
  explicit BackendTimer(MatchBackend backend) noexcept
      : backend_(backend), start_(Clock::now()) {}
  BackendTimer(const BackendTimer&) = delete;
  BackendTimer& operator=(const BackendTimer&) = delete;
  ~BackendTimer() {
    const double us = std::chrono::duration<double, std::micro>(Clock::now() - start_).count();
    if (backend_ == MatchBackend::kScalar) {
      EVOFORECAST_HISTOGRAM("match.scalar.us", us);
    } else {
      EVOFORECAST_HISTOGRAM("match.auto.us", us);
    }
  }

 private:
  using Clock = std::chrono::steady_clock;
  MatchBackend backend_;
  Clock::time_point start_;
};
#define EF_MATCH_TIMER(backend) const ::ef::core::BackendTimer ef_match_timer { backend }
#else
#define EF_MATCH_TIMER(backend) ((void)0)
#endif

}  // namespace

MatchEngine::MatchEngine(const WindowDataset& data, util::ThreadPool* pool, MatchBackend backend)
    : data_(data), pool_(pool ? pool : &util::ThreadPool::shared()), backend_(backend) {}

void MatchEngine::match_range(const Rule& rule, std::size_t begin, std::size_t end,
                              std::vector<std::size_t>& out, std::size_t* pruned) const {
  if (backend_ == MatchBackend::kScalar) {
    matchkern::scalar_match(data_.pattern(0).data(), data_.window(), rule.genes(), begin, end,
                            out);
  } else {
    // One rule: the prefilter kernel (the rule-major plane build only pays
    // off for whole rule sets — see match_all).
    matchkern::soa_prefilter_match(data_.lag_major(), rule.genes(), begin, end, out, pruned,
                                   cpu_supports_avx2());
  }
}

std::vector<std::size_t> MatchEngine::match_indices_serial(const Rule& rule) const {
  std::vector<std::size_t> out;
  if (rule.genes().size() != data_.window()) return out;  // dimension mismatch
  matchkern::scalar_match(data_.pattern(0).data(), data_.window(), rule.genes(), 0, data_.count(),
                          out);
  return out;
}

std::vector<std::size_t> MatchEngine::match_indices(const Rule& rule) const {
  const obs::Span span("core.match");
  const std::size_t m = data_.count();
  EVOFORECAST_COUNT("match.calls", 1);
  EVOFORECAST_COUNT("match.windows_scanned", m);
  std::vector<std::size_t> out;
  if (rule.genes().size() != data_.window()) return out;  // dimension mismatch
  EF_MATCH_TIMER(backend_);

  std::size_t pruned = 0;
  if (m <= kParallelGrain || pool_->size() <= 1) {
    match_range(rule, 0, m, out, &pruned);
  } else {
    // One result buffer per chunk, keyed by the chunk's begin index so the
    // concatenation order is deterministic regardless of completion order.
    const std::size_t chunks = pool_->size();
    const std::size_t width = (m + chunks - 1) / chunks;
    std::vector<std::vector<std::size_t>> partial(chunks);
    std::vector<std::size_t> partial_pruned(chunks, 0);

    pool_->parallel_for(
        0, m,
        [&](std::size_t begin, std::size_t end) {
          const std::size_t c = begin / width;
          match_range(rule, begin, end, partial[c], &partial_pruned[c]);
        },
        width);

    std::size_t total = 0;
    for (const auto& p : partial) total += p.size();
    out.reserve(total);
    for (const auto& p : partial) out.insert(out.end(), p.begin(), p.end());
    for (const std::size_t p : partial_pruned) pruned += p;
  }
  EVOFORECAST_COUNT("match.windows_matched", out.size());
  if (pruned != 0) EVOFORECAST_COUNT("match.pruned", pruned);
  return out;
}

std::vector<std::vector<std::size_t>> MatchEngine::match_all(
    std::span<const Rule> rules) const {
  const obs::Span span("core.match_all");
  const std::size_t m = data_.count();
  const std::size_t n = rules.size();
  std::vector<std::vector<std::size_t>> out(n);
  if (n == 0) return out;

  if (backend_ == MatchBackend::kScalar) {
    for (std::size_t r = 0; r < n; ++r) out[r] = match_indices(rules[r]);
    return out;
  }

  EVOFORECAST_COUNT("match.calls", n);
  EVOFORECAST_COUNT("match.windows_scanned", m);
  EF_MATCH_TIMER(backend_);

  // Build the quantized planes for the whole batch once; rules whose gene
  // count differs from the dataset window (the matches-nothing contract)
  // become inactive lanes.
  const LagMajorView view = data_.lag_major();
  std::vector<std::span<const Interval>> genes(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto& g = rules[r].genes();
    genes[r] = g.size() == data_.window() ? std::span<const Interval>(g)
                                          : std::span<const Interval>{};
  }
  const RulePlanes planes = build_rule_planes(genes, data_.window(), view.qmin, view.qinv);

  if (m <= kParallelGrain || pool_->size() <= 1) {
    matchkern::rule_major_match(view, planes, 0, m, out);
  } else {
    // Chunk over windows; per-chunk result sets are concatenated in chunk
    // order per rule, so the output is identical to the serial pass.
    const std::size_t chunks = pool_->size();
    const std::size_t width = (m + chunks - 1) / chunks;
    std::vector<std::vector<std::vector<std::size_t>>> partial(
        chunks, std::vector<std::vector<std::size_t>>(n));
    pool_->parallel_for(
        0, m,
        [&](std::size_t begin, std::size_t end) {
          matchkern::rule_major_match(view, planes, begin, end, partial[begin / width]);
        },
        width);
    for (std::size_t r = 0; r < n; ++r) {
      std::size_t total = 0;
      for (const auto& p : partial) total += p[r].size();
      out[r].reserve(total);
      for (auto& p : partial) out[r].insert(out[r].end(), p[r].begin(), p[r].end());
    }
  }

  std::size_t matched = 0;
  for (const auto& v : out) matched += v.size();
  EVOFORECAST_COUNT("match.windows_matched", matched);
  return out;
}

}  // namespace ef::core
