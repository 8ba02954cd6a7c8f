// Intra-rank parallel traversal primitives.
//
// The survey engine partitions the frozen CSR vertex walk across a small
// worker pool (std::thread -- no OpenMP dependency).  Two queue shapes are
// needed:
//
//   * chunk_queue -- self-scheduling ranges over [0, total): workers grab
//     contiguous chunks via an atomic cursor (classic work stealing without
//     per-item overhead).  Used for the send stages, where work per source
//     vertex is skewed by degree.
//
//   * task_queue<T> -- a mutex+condvar MPMC deque used for the receive side:
//     the main (draining) thread enqueues intersection tasks carved out of
//     incoming batches, workers pop until the queue is closed.
//
// Thread counts resolve through resolve_threads(): an explicit
// survey_options::threads wins, 0 falls back to the TRIPOLL_THREADS
// environment variable, and an unset/invalid environment means 1 (serial).
// See docs/THREADING.md for the full concurrency contract.
//
// fork_join() is the blocking counterpart used by the ingest/freeze pipeline
// (graph/io.cpp, graph/frozen.hpp): spawn workers 1..T-1, run worker 0 on the
// calling thread, join, rethrow the first worker exception.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace tripoll::core {

// Resolve an options-level thread request into an actual worker count (>= 1).
// `requested` > 0 is taken verbatim; 0 consults TRIPOLL_THREADS; anything
// unparseable or < 1 degrades to 1 so a bad environment never aborts a run.
[[nodiscard]] inline int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("TRIPOLL_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 1;
}

// Blocking fork-join: run fn(worker) for worker in [0, threads), with worker
// 0 on the calling thread and the rest on spawned threads.  Exceptions are
// captured per worker and the first (by worker index) is rethrown after the
// join, so a throwing worker never detaches or deadlocks the caller.
template <typename Fn>
void fork_join(int threads, Fn&& fn) {
  if (threads <= 1) {
    fn(0);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    try {
      workers.emplace_back([&fn, &errors, w] {
        try {
          fn(w);
        } catch (...) {
          errors[static_cast<std::size_t>(w)] = std::current_exception();
        }
      });
    } catch (...) {
      // Thread spawn failed (resource exhaustion): join the workers already
      // running before rethrowing -- destroying a joinable std::thread
      // calls std::terminate.
      for (auto& t : workers) t.join();
      throw;
    }
  }
  try {
    fn(0);
  } catch (...) {
    errors[0] = std::current_exception();
  }
  for (auto& w : workers) w.join();
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

// Self-scheduling contiguous chunks over [0, total).  next() hands out
// [first, last) ranges until the index space is exhausted.  Safe for any
// number of concurrent callers; wait-free (single fetch_add per grab).
class chunk_queue {
 public:
  chunk_queue(std::size_t total, std::size_t chunk)
      : total_(total), chunk_(chunk == 0 ? 1 : chunk) {}

  bool next(std::size_t& first, std::size_t& last) noexcept {
    const std::size_t begin = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= total_) return false;
    first = begin;
    last = begin + chunk_ < total_ ? begin + chunk_ : total_;
    return true;
  }

 private:
  std::size_t total_;
  std::size_t chunk_;
  std::atomic<std::size_t> cursor_{0};
};

// Pick a chunk size that gives each worker several grabs (for balance on
// skewed degree distributions) without collapsing into per-item contention.
[[nodiscard]] inline std::size_t chunk_size_for(std::size_t total, int threads) {
  const std::size_t target_grabs = static_cast<std::size_t>(threads) * 8;
  std::size_t chunk = target_grabs > 0 ? total / target_grabs : total;
  if (chunk < 16) chunk = 16;
  return chunk;
}

// Bounded-unbounded MPMC queue: producers push, consumers pop-or-block until
// close().  pop() returns false only once the queue is both closed and empty,
// so every pushed task is consumed exactly once.
template <typename T>
class task_queue {
 public:
  void push(T task) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      items_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  bool pop(T& out) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  // Non-blocking variant for the draining thread: lets it interleave queue
  // help with inbox polls instead of parking on the condvar.
  bool try_pop(T& out) {
    std::lock_guard<std::mutex> lk(mu_);
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  // Re-arm after close() so one engine can run several phases.
  void reopen() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = false;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace tripoll::core
