#include "serve/window_cache.hpp"

#include <algorithm>
#include <bit>

#include "obs/macros.hpp"

namespace ef::serve {
namespace {

/// One word into the running hash: rotate, xor, multiply (FxHash's step).
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t word) noexcept {
  return (std::rotl(h, 5) ^ word) * 0x517cc1b727220a95ULL;
}

/// MurmurHash3's finaliser, so the set index (hash modulo the set count)
/// depends on every bit of every word.
constexpr std::uint64_t avalanche(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

}  // namespace

WindowCache::WindowCache(CacheConfig config)
    : ways_(std::min(kWays, config.capacity)),
      sets_(ways_ == 0 ? 0 : config.capacity / ways_),
      stripes_(std::min(kStripes, sets_.size())) {}

WindowCache::Key WindowCache::make_key(std::uint64_t model_tag, std::uint32_t horizon,
                                       core::Aggregation agg, std::span<const double> window) {
  Key key;
  key.model_tag = model_tag;
  key.horizon = horizon;
  key.agg = static_cast<std::uint8_t>(agg);
  key.bits.reserve(window.size());
  std::uint64_t h = fold(fold(0, model_tag), (std::uint64_t{horizon} << 8) | key.agg);
  for (const double v : window) {
    key.bits.push_back(std::bit_cast<std::uint64_t>(v));
    h = fold(h, key.bits.back());
  }
  key.hash = avalanche(h);
  return key;
}

std::optional<WindowCache::Value> WindowCache::get(const Key& key) {
  if (sets_.empty()) return std::nullopt;
  const std::size_t index = key.hash % sets_.size();
  Stripe& stripe = stripes_[index % stripes_.size()];
  const std::lock_guard lock(stripe.mutex);
  for (Slot& slot : sets_[index]) {
    if (slot.key == key) {
      slot.stamp = ++stripe.clock;
      ++stripe.hits;
      EVOFORECAST_COUNT("serve.cache.hits", 1);
      return slot.value;
    }
  }
  ++stripe.misses;
  EVOFORECAST_COUNT("serve.cache.misses", 1);
  return std::nullopt;
}

void WindowCache::put(Key key, Value value) {
  if (sets_.empty()) return;
  const std::size_t index = key.hash % sets_.size();
  Stripe& stripe = stripes_[index % stripes_.size()];
  const std::lock_guard lock(stripe.mutex);
  std::vector<Slot>& set = sets_[index];
  auto slot =
      std::find_if(set.begin(), set.end(), [&key](const Slot& s) { return s.key == key; });
  if (slot == set.end()) {
    ++stripe.insertions;
    if (set.size() < ways_) {
      slot = set.insert(set.end(), Slot{std::move(key), value, 0});
    } else {
      slot = std::min_element(set.begin(), set.end(),
                              [](const Slot& a, const Slot& b) { return a.stamp < b.stamp; });
      ++stripe.evictions;
      EVOFORECAST_COUNT("serve.cache.evictions", 1);
      slot->key = key;  // copy-assign: the slot's bit storage keeps its capacity
    }
  }
  slot->value = value;
  slot->stamp = ++stripe.clock;
}

WindowCache::Stats WindowCache::stats() const {
  Stats out;
  for (std::size_t k = 0; k < stripes_.size(); ++k) {
    const Stripe& stripe = stripes_[k];
    const std::lock_guard lock(stripe.mutex);
    out.hits += stripe.hits;
    out.misses += stripe.misses;
    out.insertions += stripe.insertions;
    out.evictions += stripe.evictions;
    for (std::size_t index = k; index < sets_.size(); index += stripes_.size()) {
      out.entries += sets_[index].size();
    }
  }
  return out;
}

void WindowCache::clear() {
  for (std::size_t k = 0; k < stripes_.size(); ++k) {
    const std::lock_guard lock(stripes_[k].mutex);
    for (std::size_t index = k; index < sets_.size(); index += stripes_.size()) {
      sets_[index].clear();
    }
  }
}

}  // namespace ef::serve
