// counting_set.hpp -- distributed multiset of counters with local caching.
//
// The paper's survey accumulator (Sec. 4.1.4): "a distributed counting set
// that keeps individual counts of different items seen across ranks.  This
// structure stores a small cache on each rank to keep values seen recently,
// which must be flushed and have its contents sent across the network
// occasionally."  Algorithms 3 and 4 increment it from inside triangle
// callbacks; the interleaving of its flush RPCs with the survey's adjacency
// RPCs is exactly the message heterogeneity YGM's serialization provides.
//
// Survey callbacks never touch the set itself: each thread that closes
// batches counts into a detached `tally` (fork()), and at phase end the
// owning thread join()s the tallies into the rank cache in worker-index
// order.  The cache then evicts through the communicator exactly as
// async_increment() does, so a key travels at most once per tally and
// phase rather than each time it re-enters a full cache.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/key_hash.hpp"

namespace tripoll::comm {

template <typename Key>
class counting_set {
  using map_type = std::unordered_map<Key, std::uint64_t, key_hash<Key>>;

 public:
  using key_type = Key;
  using count_type = std::uint64_t;
  using self = counting_set<Key>;

  /// Detached per-worker counts (fork()): no communicator, no handle, never
  /// sends, so any thread may fill its own.  join() folds it into the set.
  class tally {
   public:
    void increment(Key k, count_type by = 1) { counts_[std::move(k)] += by; }

   private:
    friend counting_set;
    map_type counts_;
  };

  /// `cache_capacity` bounds the number of distinct keys cached locally
  /// before a flush sends the aggregated counts to their owners.
  explicit counting_set(communicator& c, std::size_t cache_capacity = 4096)
      : comm_(&c), handle_(c.register_object(*this)), cache_capacity_(cache_capacity) {}

  ~counting_set() { comm_->deregister_object(handle_); }

  counting_set(const counting_set&) = delete;
  counting_set& operator=(const counting_set&) = delete;

  [[nodiscard]] communicator& comm() noexcept { return *comm_; }

  /// Count `k` once (or `by` times).  Cached locally; the aggregate reaches
  /// the owner at the next cache flush or barrier-preceding flush_cache().
  void async_increment(const Key& k, count_type by = 1) {
    cache_[k] += by;
    if (cache_.size() >= cache_capacity_) flush_cache();
  }

  /// An empty tally for one worker's increments.
  [[nodiscard]] tally fork() const { return {}; }

  /// Owning thread: fold a tally into the rank cache, evicting through the
  /// communicator whenever the cache fills (as async_increment does).  The
  /// tally's nodes move into the cache; no key is copied.
  void join(tally&& t) {
    while (!t.counts_.empty()) {
      auto moved = cache_.insert(t.counts_.extract(t.counts_.begin()));
      if (!moved.inserted) moved.position->second += moved.node.mapped();
      if (cache_.size() >= cache_capacity_) flush_cache();
    }
  }

  /// Push all cached counts to their owners.  Must be followed by a
  /// communicator barrier before reading counts (callers typically use
  /// `finalize()`).
  void flush_cache() {
    for (const auto& [k, n] : cache_) {
      comm_->async(owner(k), increment_handler{}, handle_, k, n);
    }
    cache_.clear();
  }

  /// Collective: flush every rank's cache and wait until all increments have
  /// landed.  After this, local storage holds the final counts.
  void finalize() {
    flush_cache();
    comm_->barrier();
  }

  [[nodiscard]] int owner(const Key& k) const noexcept {
    return comm_->owner(key_hash<Key>{}(k));
  }

  // --- access (after finalize) -------------------------------------------------

  template <typename Fn>
  void for_all_local(Fn&& fn) const {
    for (const auto& [k, n] : counts_) fn(k, n);
  }

  /// Collective: number of distinct keys across all ranks.
  [[nodiscard]] std::uint64_t global_size() {
    return comm_->all_reduce_sum<std::uint64_t>(counts_.size());
  }

  /// Collective: total of all counts across all ranks.
  [[nodiscard]] std::uint64_t global_total() {
    count_type local = 0;
    for (const auto& [k, n] : counts_) local += n;
    return comm_->all_reduce_sum<std::uint64_t>(local);
  }

  /// Collective: gather the complete distribution onto every rank, sorted by
  /// key.  Intended for survey outputs, which are small relative to the
  /// graph (log-binned histograms, label distributions).
  [[nodiscard]] std::map<Key, count_type> gather_all() {
    std::vector<std::pair<Key, count_type>> local(counts_.begin(), counts_.end());
    auto per_rank = comm_->all_gather(local);
    std::map<Key, count_type> out;
    for (auto& vec : per_rank) {
      for (auto& [k, n] : vec) out[k] += n;
    }
    return out;
  }

  void clear() {
    cache_.clear();
    counts_.clear();
  }

 private:
  struct increment_handler {
    void operator()(communicator& c, dist_handle<self> h, const Key& k, count_type by) {
      c.resolve(h).counts_[k] += by;
    }
  };

  communicator* comm_;
  dist_handle<self> handle_;
  std::size_t cache_capacity_;
  map_type cache_;
  map_type counts_;
};

}  // namespace tripoll::comm
