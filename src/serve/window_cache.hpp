// serve/window_cache.hpp — fixed-capacity, set-associative cache of
// prediction results keyed on the exact bits of a request.
//
// Production traffic repeats: the same sensor window arrives from many
// clients, and a rule-system forecast is a pure function of (model version,
// window, horizon, aggregation). So the cache answers bit-identical repeats
// and nothing else: a key carries every window value's IEEE-754 bit pattern,
// and a lookup compares the hash, then the fixed fields, then the bits — a
// hash collision can never return a wrong value. The table is a fixed array
// of sets of at most `kWays` slots, chosen by hash; a full set evicts its
// least-recently-used slot, so a cache of at most `kWays` entries is
// exactly LRU. A fixed stripe of `kStripes` locks, chosen by set index,
// guards the sets, so concurrent request threads rarely contend.
// Abstentions are cached like values (they are just as deterministic and
// just as expensive to recompute).
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/aggregation.hpp"

namespace ef::serve {

struct CacheConfig {
  /// Total entries, rounded down to whole sets; 0 turns the cache off.
  std::size_t capacity = 65536;
};

class WindowCache {
 public:
  /// Slots per set.
  static constexpr std::size_t kWays = 8;

  struct Key {
    std::uint64_t hash = 0;       ///< word-wise hash of the fields below
    std::uint64_t model_tag = 0;  ///< LoadedModel::tag() of the exact snapshot
    std::uint32_t horizon = 1;
    std::uint8_t agg = 0;  ///< static_cast of core::Aggregation
    std::vector<std::uint64_t> bits;  ///< the window values' bit patterns

    /// Member order is comparison order: hash first, window bits last.
    [[nodiscard]] bool operator==(const Key& other) const = default;
  };

  struct Value {
    bool abstain = false;
    double value = 0.0;
    std::uint32_t votes = 0;
    /// Interval half-width the forecast shipped with; < 0 = none. Cached so
    /// a hit returns the same "interval":[p−e,p+e] as the original compute.
    double bound = -1.0;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
  };

  explicit WindowCache(CacheConfig config = {});

  /// The cache key of a raw window for the given model snapshot. Exact
  /// bits: 1-ulp neighbours and ±0.0 are different keys, a NaN keeps its
  /// payload.
  [[nodiscard]] static Key make_key(std::uint64_t model_tag, std::uint32_t horizon,
                                    core::Aggregation agg, std::span<const double> window);

  /// Lookup; a hit refreshes the entry's last use. Always misses, uncounted,
  /// when the capacity is 0.
  [[nodiscard]] std::optional<Value> get(const Key& key);

  /// Insert or overwrite; a full set evicts its least-recently-used slot.
  /// A no-op when the capacity is 0.
  void put(Key key, Value value);

  [[nodiscard]] Stats stats() const;
  /// Usable entries: the configured capacity rounded down to whole sets.
  [[nodiscard]] std::size_t capacity() const noexcept { return sets_.size() * ways_; }

  void clear();

 private:
  /// Locks over the sets: set i is guarded by stripe i % kStripes.
  static constexpr std::size_t kStripes = 64;

  struct Slot {
    Key key;  ///< reused on eviction, so its bit storage keeps its capacity
    Value value;
    std::uint64_t stamp = 0;  ///< the stripe's clock at the last use
  };

  /// A lock with the last-use clock and the counts of the sets it guards.
  /// One cache line each, so stripes taken by different threads do not
  /// share one.
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    std::uint64_t clock = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  std::size_t ways_ = 0;
  /// A set's slots grow to `ways_` as it fills, then are reused in place;
  /// a set no key has reached holds no slot.
  std::vector<std::vector<Slot>> sets_;
  std::vector<Stripe> stripes_;
};

}  // namespace ef::serve
