// mailbox.hpp -- per-rank inbox of flushed transport buffers.
//
// Sharded by source rank so concurrent producers (peer rank threads in the
// inproc backend, the receiver thread in the socket backend) do not contend
// on a single mutex: each source maps to one shard with its own lock and
// FIFO, which preserves the per-source delivery order the runtime
// guarantees while making cross-source pushes independent.  A single atomic
// element count keeps empty()/size() lock-free for the barrier's
// quiescence checks, and a condition variable lets the consumer block for
// arrivals instead of spin-polling.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

#include "serial/buffer.hpp"

namespace tripoll::comm {

/// A mailbox holds opaque byte buffers destined for one rank.  Producers are
/// any thread; the consumer is the owning rank's thread (single consumer).
class mailbox {
 public:
  /// A flushed transport buffer and its source rank.  The consumer frees
  /// the payload after draining it, unless a handler shared it.
  struct envelope {
    serial::byte_buffer payload;
    int source = 0;
  };

  /// Shard fan-out.  Sources map to shards by `source % kShards`, so at up
  /// to kShards concurrent producers pushes never share a lock.
  static constexpr std::size_t kShards = 8;

  void push(envelope e) {
    // Count before inserting: empty() may briefly over-report (conservative
    // for the barrier -- a rank re-checks rather than declaring idle) but
    // never under-reports a message that is already enqueued.  seq_cst on
    // the count_/waiters_ pair: the producer's count_ store must be ordered
    // before its waiters_ load (and the consumer's waiters_ store before
    // its count_ load) or a Dekker-style reordering lets both sides read
    // stale zeros and the push skips a wakeup the consumer is waiting for.
    count_.fetch_add(1, std::memory_order_seq_cst);
    auto& s = shards_[static_cast<std::size_t>(e.source) % kShards];
    {
      const std::lock_guard lock(s.mutex);
      s.queue.push_back(std::move(e));
    }
    if (waiters_.load(std::memory_order_seq_cst) != 0) {
      // Acquire/release the wait mutex so a consumer between its predicate
      // check and wait() cannot miss this notification.
      { const std::lock_guard lock(wait_mutex_); }
      wait_cv_.notify_all();
    }
  }

  /// Non-blocking pop; returns false when the mailbox is empty.  Rotates
  /// through the shards for cross-source fairness; order within one source
  /// is FIFO.
  bool try_pop(envelope& out) {
    if (count_.load(std::memory_order_acquire) == 0) return false;
    for (std::size_t i = 0; i < kShards; ++i) {
      auto& s = shards_[(cursor_ + i) % kShards];
      const std::lock_guard lock(s.mutex);
      if (s.queue.empty()) continue;
      out = std::move(s.queue.front());
      s.queue.pop_front();
      cursor_ = (cursor_ + i) % kShards;  // keep draining this source's burst
      count_.fetch_sub(1, std::memory_order_release);
      return true;
    }
    // A producer has incremented the count but not finished inserting yet;
    // report empty and let the caller poll again.
    return false;
  }

  /// Block until the mailbox is (probably) non-empty or `timeout` elapses;
  /// returns true when messages are available.  Replaces the barrier loop's
  /// blind sleep: a push wakes the consumer immediately.
  bool wait_nonempty(std::chrono::microseconds timeout) {
    if (count_.load(std::memory_order_acquire) != 0) return true;
    std::unique_lock lock(wait_mutex_);
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    const bool ready = wait_cv_.wait_for(lock, timeout, [&] {
      return count_.load(std::memory_order_seq_cst) != 0;
    });
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    return ready;
  }

  [[nodiscard]] bool empty() const {
    return count_.load(std::memory_order_acquire) == 0;
  }

  [[nodiscard]] std::size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

 private:
  struct alignas(64) shard {
    std::mutex mutex;
    std::deque<envelope> queue;
  };

  std::array<shard, kShards> shards_;
  std::atomic<std::size_t> count_{0};
  std::size_t cursor_ = 0;  ///< consumer-only rotation state

  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  std::atomic<int> waiters_{0};
};

}  // namespace tripoll::comm
