// Persistent worker pool with blocked-range parallel_for.
//
// The Blaze runtime keeps one pool alive for the whole query so per-EdgeMap
// thread-creation cost is zero (Core Guidelines CP.41: minimize thread
// creation and destruction).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace blaze {

/// Fixed-size pool of worker threads executing "run this callable on every
/// worker" tasks. parallel_for is built on top with atomic chunk stealing.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (minimum 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(worker_id)` on every worker (including id 0..n-1) and blocks
  /// until all complete. Must not be called re-entrantly from a worker.
  void run_on_all(const std::function<void(std::size_t)>& fn);

  /// Parallel loop over [begin, end) with dynamic chunking. `fn` receives
  /// (index). Blocks until the whole range is processed.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                    std::size_t grain = 1024) {
    parallel_for_chunks(
        begin, end,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) fn(i);
        },
        grain);
  }

  /// Like parallel_for, but `fn` receives each chunk as (lo, hi), so
  /// per-chunk state (a local sum, a partial word) is published once per
  /// chunk instead of once per index.
  template <typename Fn>
  void parallel_for_chunks(std::size_t begin, std::size_t end, Fn&& fn,
                           std::size_t grain = 1024) {
    if (end <= begin) return;
    if (end - begin <= grain || num_threads() == 1) {
      fn(begin, end);
      return;
    }
    std::atomic<std::size_t> next{begin};
    run_on_all([&](std::size_t) {
      for (;;) {
        std::size_t chunk = next.fetch_add(grain, std::memory_order_relaxed);
        if (chunk >= end) break;
        fn(chunk, std::min(chunk + grain, end));
      }
    });
  }

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* task_ = nullptr;
  std::size_t epoch_ = 0;        // incremented per run_on_all
  std::size_t remaining_ = 0;    // workers yet to finish current epoch
  bool shutdown_ = false;
};

}  // namespace blaze
