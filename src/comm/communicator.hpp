// communicator.hpp -- per-rank endpoint of the simulated distributed runtime.
//
// Mirrors the YGM API surface the paper relies on (Sec. 4.1):
//   * async(dest, handler, args...)  -- buffered fire-and-forget RPC
//   * barrier()                      -- flush + quiescence-based termination
//   * all_reduce/broadcast/all_gather -- collectives built on async itself
//   * a distributed-object registry so handlers can address the destination
//     rank's instance of a collectively-constructed container (the ygm_ptr
//     equivalent).
//
// One communicator belongs to exactly one rank thread; only that thread may
// call its methods.  Handlers run on the destination rank's thread, giving
// the single-writer discipline the vertex-centric algorithms assume.  (The
// one sanctioned relaxation -- intra-rank survey workers delivering their
// own comm::send_buffers straight to the thread-safe transport, never
// through the communicator -- is specified in docs/THREADING.md.)
#pragma once

#include <any>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/config.hpp"
#include "comm/handler_registry.hpp"
#include "comm/send_buffers.hpp"
#include "comm/stats.hpp"
#include "comm/transport.hpp"
#include "serial/buffer.hpp"
#include "serial/hash.hpp"
#include "serial/serialize.hpp"

namespace tripoll::comm {

/// Serializable reference to a collectively-constructed object.  All ranks
/// construct distributed objects in the same SPMD order, so the dense id
/// resolves to the destination rank's own instance when it arrives.
template <typename T>
struct dist_handle {
  std::uint32_t id = 0;
};

class communicator {
 public:
  communicator(transport& t, int rank)
      : transport_(&t),
        rank_(rank),
        send_buffers_(t, rank) {}

  communicator(const communicator&) = delete;
  communicator& operator=(const communicator&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return transport_->nranks(); }
  [[nodiscard]] bool rank0() const noexcept { return rank_ == 0; }
  [[nodiscard]] const config& cfg() const noexcept { return transport_->cfg(); }

  /// Owning rank for a hashed key (the paper's random/cyclic partitioning).
  [[nodiscard]] int owner(std::uint64_t key) const noexcept {
    return static_cast<int>(serial::splitmix64(key) % static_cast<std::uint64_t>(size()));
  }

  // --- asynchronous RPC ----------------------------------------------------

  /// Fire-and-forget: enqueue `Handler{}(dest_comm, args...)` for execution
  /// on rank `dest`.  Handler must be a stateless (empty) callable; state
  /// travels through `args`, which must be serializable.  Delivery order
  /// between different destinations is unspecified; messages to one
  /// destination are delivered in send order.  Buffered per destination
  /// until config::buffer_capacity bytes or the next flush (send_buffers).
  template <typename Handler, typename... Args>
  void async(int dest, Handler handler, const Args&... args) {
    assert(dest >= 0 && dest < size());
    transport_->throw_if_aborted();
    send_buffers_.async(dest, handler, args...);
    maybe_poll();
  }

  /// Send the same RPC to every rank (including self).
  template <typename Handler, typename... Args>
  void async_bcast(Handler h, const Args&... args) {
    for (int dest = 0; dest < size(); ++dest) async(dest, h, args...);
  }

  /// Flush all per-destination send buffers to the transport.
  void flush_all() { send_buffers_.flush_all(); }

  /// Drain and execute everything currently in this rank's inbox.
  void process_incoming() { drain(SIZE_MAX); }

  /// Pin the payload currently being drained so work referencing it
  /// (wire_spans, string_views) can outlive the handler -- the survey
  /// engine's parallel mode hands intersection tasks to worker threads this
  /// way.  Only callable from inside a handler.  The payload's heap block
  /// never moves (byte_buffer moves transfer the pointer), so raw pointers
  /// taken before the call stay valid; a stolen payload is freed when the
  /// last shared_ptr drops.
  [[nodiscard]] std::shared_ptr<const serial::byte_buffer> share_current_payload();

  // --- barrier ---------------------------------------------------------------

  /// Full YGM-style barrier: completes only when every rank has entered the
  /// barrier, all buffers (including those generated by handlers running
  /// inside the barrier) have been flushed, delivered and processed.
  void barrier();

  // --- collectives (built on async; must be called collectively) -----------

  template <typename T, typename Op>
  [[nodiscard]] T all_reduce(const T& value, Op op);

  /// Sum reduction convenience.
  template <typename T>
  [[nodiscard]] T all_reduce_sum(const T& value) {
    return all_reduce(value, [](const T& a, const T& b) { return a + b; });
  }

  template <typename T>
  [[nodiscard]] T all_reduce_min(const T& value) {
    return all_reduce(value, [](const T& a, const T& b) { return a < b ? a : b; });
  }

  template <typename T>
  [[nodiscard]] T all_reduce_max(const T& value) {
    return all_reduce(value, [](const T& a, const T& b) { return a < b ? b : a; });
  }

  /// Every rank receives the vector of all ranks' values, indexed by rank.
  template <typename T>
  [[nodiscard]] std::vector<T> all_gather(const T& value);

  /// Value from `root` distributed to every rank.
  template <typename T>
  [[nodiscard]] T broadcast(const T& value, int root);

  // --- distributed-object registry ------------------------------------------

  /// Register a rank-local object; returns the dense id shared (by SPMD
  /// construction order) with every other rank's twin instance.
  template <typename T>
  dist_handle<T> register_object(T& object) {
    objects_.push_back(static_cast<void*>(&object));
    return dist_handle<T>{static_cast<std::uint32_t>(objects_.size() - 1)};
  }

  template <typename T>
  void deregister_object(dist_handle<T> handle) noexcept {
    if (handle.id < objects_.size()) objects_[handle.id] = nullptr;
  }

  /// Resolve a handle to this rank's instance.
  template <typename T>
  [[nodiscard]] T& resolve(dist_handle<T> handle) {
    assert(handle.id < objects_.size() && objects_[handle.id] != nullptr);
    return *static_cast<T*>(objects_[handle.id]);
  }

  // --- stats -----------------------------------------------------------------

  /// Monotone counters aggregated over the ranks hosted in this process:
  /// the whole job under the inproc backend, only this rank under the
  /// socket backend.  Point-in-time and racy across ranks -- for metrics
  /// that must be identical everywhere use local_stats() deltas with
  /// all_reduce (or global_stats()).
  [[nodiscard]] stats_snapshot stats() const { return transport_->snapshot(); }

  /// Collective: global counter totals as an all-reduced sum of every
  /// rank's own counters.  Identical on every rank and backend-agnostic,
  /// unlike stats(), which reads whatever shared memory happens to be
  /// visible locally.  (The reduction's own traffic is not included in the
  /// returned totals but does advance the underlying counters.)
  [[nodiscard]] stats_snapshot global_stats() {
    return all_reduce(local_stats(),
                      [](const stats_snapshot& a, const stats_snapshot& b) { return a + b; });
  }

  /// This rank's own send counters.  Written only from this rank's thread,
  /// so a (snapshot, barrier, work, barrier, snapshot) bracket yields an
  /// exact, deterministic per-rank delta; all_reduce_sum the deltas for
  /// global per-phase totals that agree on every rank.
  [[nodiscard]] stats_snapshot local_stats() const {
    return transport_->snapshot(rank_);
  }

  [[nodiscard]] transport& underlying_transport() noexcept { return *transport_; }

 private:
  /// A send-heavy rank drains up to kDrainBatch inbound buffers every
  /// kPollEvery async() calls, keeping its inbox (and memory) bounded; a
  /// full drain happens at barriers.
  static constexpr std::size_t kPollEvery = 64;
  static constexpr std::size_t kDrainBatch = 16;

  /// Execute up to `max_buffers` delivered buffers.
  void drain(std::size_t max_buffers);

  void maybe_poll() {
    if (in_drain_) return;  // no recursive draining from inside a handler
    if (++ops_since_poll_ < kPollEvery) return;
    ops_since_poll_ = 0;
    drain(kDrainBatch);
  }

  /// Exponential-ish backoff for the barrier wait loop: spin, then yield,
  /// then block on the inbox with a bounded timeout (wakes immediately on
  /// message arrival; done/abort flips are picked up at timeout).
  void backoff(unsigned& spins);

  transport* transport_;
  int rank_;

  send_buffers send_buffers_;
  std::size_t ops_since_poll_ = 0;
  bool in_drain_ = false;

  // Payload-stealing slots for share_current_payload(): the envelope being
  // drained, and (lazily) its shared owner once a handler steals it.
  serial::byte_buffer* current_payload_ = nullptr;
  std::shared_ptr<const serial::byte_buffer> current_payload_shared_;

  std::uint64_t barrier_generation_ = 0;

  std::vector<void*> objects_;

  // Collective scratch (single-writer: handler runs on this rank's thread).
  std::any collective_accumulator_;
  std::any collective_result_;

  template <typename T, typename Op>
  struct reduce_contribute_handler;
  template <typename T>
  struct collective_set_result_handler;
  template <typename T>
  struct gather_contribute_handler;

  template <typename T>
  [[nodiscard]] std::optional<T>& accumulator_slot() {
    if (!collective_accumulator_.has_value() ||
        std::any_cast<std::optional<T>>(&collective_accumulator_) == nullptr) {
      collective_accumulator_ = std::optional<T>{};
    }
    return *std::any_cast<std::optional<T>>(&collective_accumulator_);
  }

  template <typename T>
  [[nodiscard]] std::optional<T>& result_slot() {
    if (!collective_result_.has_value() ||
        std::any_cast<std::optional<T>>(&collective_result_) == nullptr) {
      collective_result_ = std::optional<T>{};
    }
    return *std::any_cast<std::optional<T>>(&collective_result_);
  }
};

// ---------------------------------------------------------------------------
// Collective implementations.
// ---------------------------------------------------------------------------

template <typename T, typename Op>
struct communicator::reduce_contribute_handler {
  void operator()(communicator& c, const T& v) {
    auto& slot = c.accumulator_slot<T>();
    if (!slot.has_value()) {
      slot = v;
    } else {
      slot = Op{}(*slot, v);
    }
  }
};

template <typename T>
struct communicator::collective_set_result_handler {
  void operator()(communicator& c, const T& v) { c.result_slot<T>() = v; }
};

template <typename T>
struct communicator::gather_contribute_handler {
  void operator()(communicator& c, int from, const T& v) {
    auto& slot = c.accumulator_slot<std::vector<std::pair<int, T>>>();
    if (!slot.has_value()) slot.emplace();
    slot->emplace_back(from, v);
  }
};

template <typename T, typename Op>
T communicator::all_reduce(const T& value, Op op) {
  static_assert(std::is_empty_v<Op>,
                "reduction operators must be stateless (captureless lambda or "
                "empty functor)");
  async(0, reduce_contribute_handler<T, Op>{}, value);
  barrier();
  if (rank0()) {
    auto& slot = accumulator_slot<T>();
    assert(slot.has_value());
    const T result = *slot;
    slot.reset();
    async_bcast(collective_set_result_handler<T>{}, result);
  }
  barrier();
  auto& out = result_slot<T>();
  assert(out.has_value());
  T result = std::move(*out);
  out.reset();
  (void)op;
  return result;
}

template <typename T>
std::vector<T> communicator::all_gather(const T& value) {
  async(0, gather_contribute_handler<T>{}, rank_, value);
  barrier();
  if (rank0()) {
    auto& slot = accumulator_slot<std::vector<std::pair<int, T>>>();
    assert(slot.has_value());
    std::vector<T> ordered(static_cast<std::size_t>(size()));
    for (auto& [from, v] : *slot) ordered[static_cast<std::size_t>(from)] = std::move(v);
    slot.reset();
    async_bcast(collective_set_result_handler<std::vector<T>>{}, ordered);
  }
  barrier();
  auto& out = result_slot<std::vector<T>>();
  assert(out.has_value());
  std::vector<T> result = std::move(*out);
  out.reset();
  return result;
}

template <typename T>
T communicator::broadcast(const T& value, int root) {
  if (rank_ == root) {
    async_bcast(collective_set_result_handler<T>{}, value);
  }
  barrier();
  auto& out = result_slot<T>();
  assert(out.has_value());
  T result = std::move(*out);
  out.reset();
  return result;
}

}  // namespace tripoll::comm
