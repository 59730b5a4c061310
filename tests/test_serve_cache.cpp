// Tests for serve/window_cache.hpp: exact-bit keys, roundtrips (values and
// abstentions alike), LRU eviction/refresh, stat counters, key separation
// across model tag / horizon / aggregation, capacity 0 as the off switch,
// and random traffic against a std::map model.
#include "serve/window_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace {

using ef::core::Aggregation;
using ef::serve::CacheConfig;
using ef::serve::WindowCache;

WindowCache::Value value_of(double v, std::uint32_t votes = 1) {
  WindowCache::Value out;
  out.value = v;
  out.votes = votes;
  return out;
}

TEST(WindowCache, RoundTripValueAndAbstention) {
  WindowCache cache;
  const std::vector<double> window{0.1, 0.2, 0.3};
  const auto key = cache.make_key(7, 1, Aggregation::kMean, window);

  EXPECT_FALSE(cache.get(key).has_value());
  cache.put(key, value_of(0.42, 3));
  const auto hit = cache.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->abstain);
  EXPECT_DOUBLE_EQ(hit->value, 0.42);
  EXPECT_EQ(hit->votes, 3u);

  // Abstentions are cached like values.
  const auto akey = cache.make_key(7, 1, Aggregation::kMean, std::vector<double>{9.0, 9.0, 9.0});
  WindowCache::Value abstain;
  abstain.abstain = true;
  cache.put(akey, abstain);
  const auto ahit = cache.get(akey);
  ASSERT_TRUE(ahit.has_value());
  EXPECT_TRUE(ahit->abstain);
  EXPECT_EQ(ahit->votes, 0u);
}

TEST(WindowCache, ExactBitsKeys) {
  WindowCache cache;
  const auto key_of = [&](double v) {
    return cache.make_key(1, 1, Aggregation::kMean, std::vector<double>{v, 0.25});
  };
  const double inf = std::numeric_limits<double>::infinity();
  // 1-ulp neighbours are different keys.
  EXPECT_NE(key_of(0.5), key_of(std::nextafter(0.5, inf)));
  EXPECT_NE(key_of(0.5), key_of(std::nextafter(0.5, -inf)));
  // +0.0 == -0.0 as doubles, but they are different keys.
  EXPECT_NE(key_of(0.0), key_of(-0.0));
  // A NaN window gives a stable key.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(key_of(nan), key_of(nan));
  EXPECT_EQ(key_of(0.5), key_of(0.5));

  cache.put(key_of(0.5), value_of(1.0));
  cache.put(key_of(nan), value_of(2.0));
  EXPECT_FALSE(cache.get(key_of(std::nextafter(0.5, inf))).has_value());
  EXPECT_FALSE(cache.get(key_of(-0.0)).has_value());
  ASSERT_TRUE(cache.get(key_of(nan)).has_value());
  EXPECT_EQ(cache.get(key_of(nan))->value, 2.0);
  EXPECT_EQ(cache.get(key_of(0.5))->value, 1.0);
}

TEST(WindowCache, KeySeparation) {
  WindowCache cache;
  const std::vector<double> window{0.3, 0.6};
  const auto base = cache.make_key(1, 1, Aggregation::kMean, window);
  // Any change in the snapshot tag, horizon or aggregation must miss.
  EXPECT_NE(base, cache.make_key(2, 1, Aggregation::kMean, window));
  EXPECT_NE(base, cache.make_key(1, 2, Aggregation::kMean, window));
  EXPECT_NE(base, cache.make_key(1, 1, Aggregation::kMedian, window));

  cache.put(base, value_of(5.0));
  EXPECT_FALSE(cache.get(cache.make_key(2, 1, Aggregation::kMean, window)).has_value());
  EXPECT_FALSE(cache.get(cache.make_key(1, 2, Aggregation::kMean, window)).has_value());
  EXPECT_FALSE(cache.get(cache.make_key(1, 1, Aggregation::kMedian, window)).has_value());
  EXPECT_TRUE(cache.get(base).has_value());
}

TEST(WindowCache, LruEvictionAndRefresh) {
  CacheConfig config;
  config.capacity = 4;  // one set: exact LRU order
  WindowCache cache(config);

  auto key_of = [&](int i) {
    return cache.make_key(1, 1, Aggregation::kMean, std::vector<double>{static_cast<double>(i)});
  };

  for (int i = 0; i < 4; ++i) cache.put(key_of(i), value_of(i));
  // Touch key 0 so key 1 becomes the LRU victim.
  EXPECT_TRUE(cache.get(key_of(0)).has_value());
  cache.put(key_of(4), value_of(4.0));

  EXPECT_TRUE(cache.get(key_of(0)).has_value());
  EXPECT_FALSE(cache.get(key_of(1)).has_value());  // evicted
  EXPECT_TRUE(cache.get(key_of(2)).has_value());
  EXPECT_TRUE(cache.get(key_of(3)).has_value());
  EXPECT_TRUE(cache.get(key_of(4)).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 4u);
}

TEST(WindowCache, PutOverwritesInPlace) {
  CacheConfig config;
  config.capacity = 2;
  WindowCache cache(config);
  const auto key = cache.make_key(1, 1, Aggregation::kMean, std::vector<double>{1.0});
  cache.put(key, value_of(1.0));
  cache.put(key, value_of(2.0));
  const auto hit = cache.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->value, 2.0);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(WindowCache, StatsAndClear) {
  WindowCache cache;
  const auto key = cache.make_key(1, 1, Aggregation::kMean, std::vector<double>{0.5});
  EXPECT_FALSE(cache.get(key).has_value());
  cache.put(key, value_of(1.0));
  EXPECT_TRUE(cache.get(key).has_value());
  EXPECT_TRUE(cache.get(key).has_value());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.get(key).has_value());
}

TEST(WindowCache, NonFiniteWindowValuesProduceStableKeys) {
  // NaN and infinities are keyed by their bits like any other value, so
  // lookups stay deterministic.
  WindowCache cache;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto k1 = cache.make_key(1, 1, Aggregation::kMean, std::vector<double>{nan, inf, -inf});
  const auto k2 = cache.make_key(1, 1, Aggregation::kMean, std::vector<double>{nan, inf, -inf});
  EXPECT_EQ(k1, k2);
  cache.put(k1, value_of(3.0));
  EXPECT_TRUE(cache.get(k2).has_value());
}

TEST(WindowCache, ConcurrentMixedTraffic) {
  CacheConfig config;
  config.capacity = 128;
  WindowCache cache(config);

  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const double v = static_cast<double>((t * 31 + i) % 200);
        const auto key = cache.make_key(1, 1, Aggregation::kMean, std::vector<double>{v});
        if (const auto hit = cache.get(key)) {
          // A hit must always carry the value that was stored for this key.
          EXPECT_DOUBLE_EQ(hit->value, v * 2.0);
        } else {
          cache.put(key, value_of(v * 2.0));
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const auto stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.entries, 128u);
}

TEST(WindowCache, ZeroCapacityIsOff) {
  CacheConfig config;
  config.capacity = 0;
  WindowCache cache(config);
  EXPECT_EQ(cache.capacity(), 0u);
  const auto key = cache.make_key(1, 1, Aggregation::kMean, std::vector<double>{1.0});
  cache.put(key, value_of(1.0));
  EXPECT_FALSE(cache.get(key).has_value());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);
}

TEST(WindowCache, DifferentialAgainstMapModel) {
  // Random get/put traffic over a small key universe, checked against a
  // std::map holding the last value put for each exact key: every hit
  // carries that value, and the table never holds more than its capacity.
  for (const std::size_t capacity : {4u, 16u, 128u}) {
    CacheConfig config;
    config.capacity = capacity;
    WindowCache cache(config);
    std::map<std::vector<double>, double> model;
    ef::util::Rng rng(capacity);
    std::uint64_t hits = 0;
    for (int op = 0; op < 20000; ++op) {
      // Universe of 4 × capacity windows of length 1–3, some 1 ulp apart.
      const auto id = rng.index(4 * capacity);
      std::vector<double> window(1 + id % 3, static_cast<double>(id / 2));
      if (id % 2 == 1) window.back() = std::nextafter(window.back(), 1e300);
      const auto key = cache.make_key(9, 1, Aggregation::kMean, window);
      if (rng.uniform(0.0, 1.0) < 0.5) {
        const double v = rng.uniform(-1.0, 1.0);
        cache.put(key, value_of(v));
        model[window] = v;
      } else if (const auto hit = cache.get(key)) {
        ++hits;
        const auto it = model.find(window);
        ASSERT_NE(it, model.end()) << "capacity " << capacity << " op " << op;
        ASSERT_EQ(hit->value, it->second) << "capacity " << capacity << " op " << op;
      }
      ASSERT_LE(cache.stats().entries, capacity);
    }
    EXPECT_GT(hits, 0u) << "capacity " << capacity;
    EXPECT_EQ(cache.stats().entries, capacity) << "capacity " << capacity;
  }
}

}  // namespace
