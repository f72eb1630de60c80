// Fixed-size worker pool used by the service-wide tensor scheduler to run
// preprocessing subtasks concurrently (the paper's host-side S/R/K/T threads).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gt {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Block until the queue is empty and every worker is idle.
  void wait_idle();

  /// Split [begin, end) into at most `chunks` contiguous ranges and run
  /// `fn(chunk_index, chunk_begin, chunk_end)` on the pool, blocking until
  /// every chunk finishes. Chunk boundaries are a pure function of
  /// (begin, end, chunks) — identical to the hand-rolled fan-out loops this
  /// replaces — so chunked algorithms stay deterministic. The first
  /// exception thrown by any chunk is rethrown on the calling thread after
  /// all chunks complete.
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, std::size_t chunks,
                    F&& fn) {
    if (end <= begin) return;
    const std::size_t n = end - begin;
    chunks = std::max<std::size_t>(1, std::min(chunks, n));
    const std::size_t per = (n + chunks - 1) / chunks;
    std::vector<std::future<void>> futures;
    futures.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t lo = begin + c * per;
      if (lo >= end) break;
      const std::size_t hi = std::min(end, lo + per);
      futures.push_back(submit([&fn, c, lo, hi] { fn(c, lo, hi); }));
    }
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace gt
