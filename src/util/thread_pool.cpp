#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>

#include "obs/macros.hpp"

namespace ef::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    threads = hc == 0 ? 1 : hc;
  }
  // Register the pool-wide instruments eagerly so a run report always shows
  // them, even when every parallel_for of the run decided to stay inline.
  EVOFORECAST_COUNT("pool.tasks", 0);
  EVOFORECAST_COUNT("pool.busy_us", 0);
  EVOFORECAST_COUNT("pool.parallel_for.inline", 0);
  EVOFORECAST_COUNT("pool.parallel_for.pooled", 0);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(std::size_t worker_index) {
#if EVOFORECAST_OBS_ENABLED
  // Per-worker busy-time counter, registered once per worker thread. The
  // name is dynamic, so bypass the static-caching macro and hold the
  // reference for the worker's lifetime (registry instruments are stable).
  obs::Counter& busy_us = obs::Registry::global().counter(
      "pool.worker" + std::to_string(worker_index) + ".busy_us");
#else
  (void)worker_index;
#endif
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
#if EVOFORECAST_OBS_ENABLED
    const auto task_start = std::chrono::steady_clock::now();
#endif
    task();
#if EVOFORECAST_OBS_ENABLED
    const double task_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - task_start)
                               .count();
    const auto whole_us = static_cast<std::uint64_t>(task_us);
    busy_us.add(whole_us);
    EVOFORECAST_COUNT("pool.tasks", 1);
    EVOFORECAST_COUNT("pool.busy_us", whole_us);
    EVOFORECAST_HISTOGRAM("pool.task_us", task_us);
#endif
  }
}

void ThreadPool::parallel_for_impl(std::size_t begin, std::size_t end,
                                   FunctionRef<void(std::size_t, std::size_t)> body,
                                   std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(grain, 1);

  // Small ranges or a degenerate pool: run inline, no synchronisation.
  if (n <= grain || workers_.size() <= 1) {
    EVOFORECAST_COUNT("pool.parallel_for.inline", 1);
    body(begin, end);
    return;
  }
  EVOFORECAST_COUNT("pool.parallel_for.pooled", 1);

  const std::size_t max_chunks = (n + grain - 1) / grain;
  const std::size_t chunks = std::min(workers_.size(), max_chunks);
  const std::size_t width = (n + chunks - 1) / chunks;

  // Completion state lives on this stack frame. A chunk must finish touching
  // it before the caller may return, so the countdown, the error slot and
  // the notify all happen under done_mutex: the caller's wait cannot observe
  // remaining == 0 until the last chunk has released the lock, so no worker
  // touches this frame after the caller returns.
  std::size_t remaining = chunks;
  std::exception_ptr first_error;
  std::mutex done_mutex;
  std::condition_variable done_cv;

  {
    const std::lock_guard lock(mutex_);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t chunk_begin = begin + c * width;
      const std::size_t chunk_end = std::min(end, chunk_begin + width);
      tasks_.emplace([&, body, chunk_begin, chunk_end] {
        std::exception_ptr error;
        try {
          body(chunk_begin, chunk_end);
        } catch (...) {
          error = std::current_exception();
        }
        const std::lock_guard done_lock(done_mutex);
        if (error && !first_error) first_error = std::move(error);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
  }
  task_ready_.notify_all();

  std::unique_lock done_lock(done_mutex);
  done_cv.wait(done_lock, [&] { return remaining == 0; });

  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace ef::util
