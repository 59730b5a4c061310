#include "core/match_engine.hpp"

#include "obs/macros.hpp"
#include "obs/timeline.hpp"

namespace ef::core {
namespace {

constexpr std::size_t kParallelGrain = 4096;

}  // namespace

MatchEngine::MatchEngine(const WindowDataset& data, util::ThreadPool* pool, MatchBackend backend)
    : data_(data), pool_(pool ? pool : &util::ThreadPool::shared()), backend_(backend) {}

std::vector<std::size_t> MatchEngine::match_indices(const Rule& rule) const {
  const obs::Span span("core.match");
  const std::size_t m = data_.count();
  EVOFORECAST_COUNT("match.calls", 1);
  EVOFORECAST_COUNT("match.windows_scanned", m);
  std::vector<std::size_t> out;
  if (rule.genes().size() != data_.window()) return out;  // dimension mismatch

  // One rule: the prefilter kernel (the rule-major plane build only pays off
  // for whole rule sets — see match_all).
  const LagMajorView view = data_.lag_major();
  const bool avx2 = cpu_supports_avx2();
  std::size_t pruned = 0;
  if (m <= kParallelGrain || pool_->size() <= 1) {
    matchkern::soa_prefilter_match(view, rule.genes(), 0, m, out, &pruned, avx2);
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
          matchkern::soa_prefilter_match(view, rule.genes(), begin, end, partial[c],
                                         &partial_pruned[c], avx2);
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

  EVOFORECAST_COUNT("match.calls", n);
  EVOFORECAST_COUNT("match.windows_scanned", m);

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
