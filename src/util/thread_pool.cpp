#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>

#include "util/common.h"

namespace gapsp {
namespace {

/// Set for the lifetime of every pool worker thread. parallel_for consults
/// it so a nested call (e.g. a grid-parallel kernel inside Johnson's MSSP
/// parallel_for) runs inline: its chunks would otherwise sit in the queue
/// behind the very task that is blocked waiting for them.
thread_local bool tls_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::in_worker() noexcept { return tls_in_worker; }

void ThreadPool::worker_loop() {
  tls_in_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task.fn();
  }
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push(Task{std::move(fn)});
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain, std::size_t max_threads) {
  if (count == 0) return;
  if (grain <= 1) {
    // Auto-grain: ~4 chunks per worker balances dispatch overhead against
    // load imbalance when per-index cost varies.
    grain = std::max<std::size_t>(
        1, count / (4 * std::max<std::size_t>(1, workers_.size())));
  }
  const std::size_t chunks = (count + grain - 1) / grain;
  std::size_t width = workers_.size();
  if (max_threads > 0) width = std::min(width, max_threads);
  if (chunks == 1 || width <= 1 || in_worker()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // The latch must live on the heap: the caller's wait predicate can become
  // true through the atomic before the last finisher has taken the mutex to
  // notify, so the caller may return (and pop its stack frame) while that
  // finisher is still inside the notify path. Each participant keeps the
  // state alive through its own shared_ptr.
  struct Work {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t count = 0, grain = 0, chunks = 0, launches = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto work = std::make_shared<Work>();
  work->count = count;
  work->grain = grain;
  work->chunks = chunks;
  work->launches = std::min(chunks, width);
  // Borrowing fn is safe: every fn(i) call happens before that participant's
  // done increment, and the caller does not return until done == launches.
  work->fn = &fn;
  auto body = [](const std::shared_ptr<Work>& w) {
    for (;;) {
      const std::size_t c = w->next.fetch_add(1);
      if (c >= w->chunks) break;
      const std::size_t lo = c * w->grain;
      const std::size_t hi = std::min(w->count, lo + w->grain);
      for (std::size_t i = lo; i < hi; ++i) (*w->fn)(i);
    }
    if (w->done.fetch_add(1) + 1 == w->launches) {
      std::lock_guard<std::mutex> lk(w->mu);
      w->cv.notify_one();
    }
  };
  for (std::size_t t = 1; t < work->launches; ++t) {
    enqueue([work, body] { body(work); });
  }
  body(work);  // the calling thread participates as launch #0
  std::unique_lock<std::mutex> lk(work->mu);
  work->cv.wait(lk, [&] { return work->done.load() == work->launches; });
}

std::size_t ThreadPool::threads_from_env(const char* value) {
  if (value == nullptr) return 0;
  const std::string_view s(value);
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string_view::npos) return 0;  // all whitespace
  const auto end = s.find_last_not_of(" \t");
  try {
    return static_cast<std::size_t>(util::parse_int(
        s.substr(begin, end - begin + 1), "GAPSP_THREADS", 1));
  } catch (const Error&) {
    return 0;
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("GAPSP_THREADS"); env != nullptr) {
      const std::size_t v = threads_from_env(env);
      if (v == 0) {
        std::fprintf(stderr,
                     "gapsp: ignoring GAPSP_THREADS=\"%s\" (not a positive "
                     "integer); using hardware concurrency\n",
                     env);
      }
      return v;
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace gapsp
