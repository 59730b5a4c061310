// Tests for util/thread_pool.hpp: coverage of ranges, exception propagation,
// reuse, inline small-range path.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using ef::util::ThreadPool;

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(
      0, hits.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  pool.parallel_for(7, 3, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SmallRangeRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  pool.parallel_for(
      0, 8, [&](std::size_t, std::size_t) { body_thread = std::this_thread::get_id(); },
      1024);  // grain > range → inline
  EXPECT_EQ(body_thread, caller);
}

TEST(ThreadPool, SumReductionCorrect) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 100000;
  std::atomic<long long> total{0};
  pool.parallel_for(
      0, kN,
      [&](std::size_t b, std::size_t e) {
        long long local = 0;
        for (std::size_t i = b; i < e; ++i) local += static_cast<long long>(i);
        total.fetch_add(local);
      },
      128);
  EXPECT_EQ(total.load(), static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   0, 100000,
                   [&](std::size_t b, std::size_t) {
                     if (b == 0) throw std::runtime_error("boom");
                   },
                   16),
               std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(
        0, 100000, [&](std::size_t, std::size_t) { throw std::runtime_error("x"); }, 16);
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(
      0, 100000, [&](std::size_t b, std::size_t e) { count.fetch_add(static_cast<int>(e - b)); },
      16);
  EXPECT_EQ(count.load(), 100000);
}

TEST(ThreadPool, RepeatedCallsWork) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(
        0, 10000, [&](std::size_t b, std::size_t e) { count.fetch_add(static_cast<int>(e - b)); },
        64);
    ASSERT_EQ(count.load(), 10000);
  }
}

TEST(ThreadPool, ExceptionFromEveryChunkRethrowsOneOfThem) {
  ThreadPool pool(4);
  std::atomic<int> chunks_run{0};
  std::set<std::string> thrown;
  for (int c = 0; c < 4; ++c) thrown.insert("chunk" + std::to_string(c * 25));
  try {
    pool.parallel_for(
        0, 100,
        [&](std::size_t b, std::size_t) {
          chunks_run.fetch_add(1);
          throw std::runtime_error("chunk" + std::to_string(b));
        },
        1);
    FAIL() << "parallel_for returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(thrown.count(e.what()), 1u) << e.what();
  }
  // Every chunk ran to completion before the caller saw the error.
  EXPECT_EQ(chunks_run.load(), 4);
}

// Overwrite the stack below the caller's frame, where the frame of a
// returned parallel_for call lived, with non-zero bytes.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char bytes[4096];
  for (auto& byte : bytes) byte = 0xA5;
}

// parallel_for keeps its completion state (countdown, mutex, condition
// variable) on the caller's stack. A worker that still touched that state
// after the caller returned would lock whatever the frame holds by then:
// glibc aborts on a mutex-state assertion or the worker blocks forever. Each
// call is followed at once by other stack use, as the match engine's merge of
// partial results is, so a late touch lands on garbage.
TEST(ThreadPool, BackToBackCallsDoNotTouchAReturnedCallersState) {
  ThreadPool pool(4);
  for (int round = 0; round < 100000; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(
        0, 8, [&](std::size_t b, std::size_t e) { count.fetch_add(static_cast<int>(e - b)); },
        1);
    scribble_stack();
    ASSERT_EQ(count.load(), 8) << "round " << round;
  }
}

TEST(ThreadPool, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int> hits(5000, 0);
  pool.parallel_for(
      0, hits.size(),
      [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      },
      16);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 5000);
}

TEST(ThreadPool, SharedPoolSingleton) {
  ThreadPool& a = ThreadPool::shared();
  ThreadPool& b = ThreadPool::shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> count{0};
  a.parallel_for(
      0, 20000, [&](std::size_t b2, std::size_t e) { count.fetch_add(static_cast<int>(e - b2)); },
      64);
  EXPECT_EQ(count.load(), 20000);
}

}  // namespace
