// match_engine.hpp — the hot loop: which training windows does a rule match?
//
// Evaluating one offspring means scanning every sliding window of the
// training set against D interval genes — O(m·D) with m up to 45 000. The
// engine runs the kernels of core/match_backend.hpp: the prefilter kernel
// for one rule and the rule-major kernel for a whole rule set, each picking
// its SIMD width from cpuid. Large scans are partitioned across the shared
// thread pool; chunks append into per-chunk buffers that are concatenated in
// order, so results are identical to the serial scan. match_all() is the
// batched entry point the fitness path uses: one plane build + one window
// pass for a whole population instead of one sweep per rule.
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
  /// `backend` has the one value kAuto.
  explicit MatchEngine(const WindowDataset& data, util::ThreadPool* pool = nullptr,
                       MatchBackend backend = resolve_match_backend(MatchBackend::kAuto));

  [[nodiscard]] const WindowDataset& data() const noexcept { return data_; }
  [[nodiscard]] MatchBackend backend() const noexcept { return backend_; }
  [[nodiscard]] util::ThreadPool& pool() const noexcept { return *pool_; }

  /// Indices of all patterns the rule's conditional part accepts, ascending.
  [[nodiscard]] std::vector<std::size_t> match_indices(const Rule& rule) const;

  /// Match every rule of a batch in one call: out[r] holds the ascending
  /// match indices of rules[r], bit-identical to match_indices(rules[r]).
  /// The quantized planes of the whole batch are built once and the window
  /// stream is scanned in a single pass — this is the shape the evolution
  /// fitness path evaluates populations with.
  [[nodiscard]] std::vector<std::vector<std::size_t>> match_all(
      std::span<const Rule> rules) const;

 private:
  const WindowDataset& data_;
  util::ThreadPool* pool_;
  MatchBackend backend_;
};

}  // namespace ef::core
