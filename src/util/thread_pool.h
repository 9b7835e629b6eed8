// Fixed-size thread pool with a parallel_for helper. The device simulator
// uses it to execute kernel grids; the CPU baselines use it to parallelize
// over SSSP sources. On a single-core host it degrades to inline execution.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gapsp {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Runs fn(i) for i in [0, count), blocking until all iterations finish.
  /// Iterations are distributed in contiguous chunks of `grain`; the default
  /// grain of 1 is auto-sized to count / (4 · workers) so per-index
  /// std::function dispatch cannot dominate tiny bodies. `max_threads`
  /// bounds how many threads participate (0 = the whole pool, 1 = inline).
  /// A call from inside a pool worker (nested parallelism) degrades to
  /// inline execution instead of deadlocking on chunks queued behind the
  /// caller's own blocked task.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1, std::size_t max_threads = 0);

  /// True when called from a thread owned by any ThreadPool — the signal
  /// parallel_for uses to detect (and inline) nested parallelism.
  static bool in_worker() noexcept;

  /// Shared process-wide pool. Sized from the GAPSP_THREADS environment
  /// variable when set, otherwise to the hardware.
  static ThreadPool& global();

  /// Worker count requested by a GAPSP_THREADS-style value: the whole string
  /// must be a positive decimal integer (surrounding whitespace allowed).
  /// Returns 0 — "fall back to hardware concurrency" — for nullptr and for
  /// anything else ("4x", "-2", "0", "", "1e3"): a typo'd override silently
  /// parsing as its numeric prefix once pinned a run to the wrong width.
  /// util::parse_int decides; global() warns once to stderr on the fallback.
  static std::size_t threads_from_env(const char* value);

 private:
  struct Task {
    std::function<void()> fn;
  };

  void worker_loop();
  void enqueue(std::function<void()> fn);

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace gapsp
