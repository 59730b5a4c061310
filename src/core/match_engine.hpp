// match_engine.hpp — the hot loop: which training windows does a rule match?
//
// Evaluating one offspring means scanning every sliding window of the
// training set against D interval genes — O(m·D) with m up to 45 000. The
// engine runs the kernels of core/match_backend.hpp: under kAuto (the
// default) the prefilter kernel for one rule and the rule-major kernel for
// a whole rule set, each picking its SIMD width from cpuid; kScalar is the
// reference scan the tests compare against. Both return bit-identical match
// sets. Large scans are partitioned across the shared thread pool; chunks
// append into per-chunk buffers that are concatenated in order, so results
// are identical to the serial scan. match_all() is the batched entry point
// the fitness path uses: one plane build + one window pass for a whole
// population instead of one sweep per rule.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/dataset.hpp"
#include "core/match_backend.hpp"
#include "core/rule.hpp"
#include "util/thread_pool.hpp"

namespace ef::core {

class MatchEngine {
 public:
  /// `pool` must outlive the engine; nullptr = use ThreadPool::shared().
  /// `backend` is kAuto for the production kernels or kScalar for the
  /// reference scan.
  explicit MatchEngine(const WindowDataset& data, util::ThreadPool* pool = nullptr,
                       MatchBackend backend = resolve_match_backend(MatchBackend::kAuto));

  [[nodiscard]] const WindowDataset& data() const noexcept { return data_; }
  [[nodiscard]] MatchBackend backend() const noexcept { return backend_; }
  [[nodiscard]] util::ThreadPool& pool() const noexcept { return *pool_; }

  /// Indices of all patterns the rule's conditional part accepts, ascending.
  [[nodiscard]] std::vector<std::size_t> match_indices(const Rule& rule) const;

  /// Sequential scalar reference implementation (tests cross-check the
  /// production kernels against it).
  [[nodiscard]] std::vector<std::size_t> match_indices_serial(const Rule& rule) const;

  /// Match every rule of a batch in one call: out[r] holds the ascending
  /// match indices of rules[r], bit-identical to match_indices(rules[r]).
  /// Under kAuto the quantized planes of the whole batch are built once and
  /// the window stream is scanned in a single pass — this is the shape the
  /// evolution fitness path evaluates populations with. kScalar loops
  /// match_indices per rule.
  [[nodiscard]] std::vector<std::vector<std::size_t>> match_all(
      std::span<const Rule> rules) const;

 private:
  /// Run the per-rule kernel over [begin, end), appending to `out`.
  void match_range(const Rule& rule, std::size_t begin, std::size_t end,
                   std::vector<std::size_t>& out, std::size_t* pruned) const;

  const WindowDataset& data_;
  util::ThreadPool* pool_;
  MatchBackend backend_;
};

}  // namespace ef::core
