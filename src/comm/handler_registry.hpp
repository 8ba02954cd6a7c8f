// handler_registry.hpp -- mapping RPC handler types to wire ids.
//
// YGM sends "a function to execute, arguments to pass, and an MPI rank at
// which to evaluate" (paper Sec. 4.1.3).  Real YGM ships lambda offsets and
// corrects for ASLR; here each distinct (Handler, Args...) instantiation
// registers a deserialize-and-invoke thunk and is addressed by a dense
// 32-bit id.
//
// Cross-process id stability (socket backend): registration is driven by
// the dynamic initialization of `thunk_registration<...>::id`, i.e. it
// happens during static init, before main, in the (fixed) initializer order
// of the executable image.  Every rank of an SPMD job runs the same binary,
// so every process assigns identical ids without any negotiation -- the
// moral equivalent of YGM's ASLR correction.  The table additionally keeps
// a fingerprint (FNV-1a over registration order and mangled thunk names)
// that the socket backend exchanges in its HELLO handshake to fail fast if
// two processes ever disagree (e.g. mismatched binaries).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <utility>

#include "serial/buffer.hpp"
#include "serial/hash.hpp"
#include "serial/serialize.hpp"

namespace tripoll::comm {

class communicator;

namespace detail {

/// A thunk deserializes one RPC's arguments and invokes the handler on the
/// destination rank.  `c` is the destination rank's communicator.
using thunk_fn = void (*)(communicator& c, serial::buffer_reader& rd);

/// Global thunk table: a dense, fixed-capacity function-pointer array.
/// Registration (mutex-guarded, once per (Handler, Args...) instantiation,
/// during static init) publishes the entry with a release store on the
/// count; dispatch is a single indexed load with no lock and no branchy
/// container machinery -- the drain loop resolves the table base once per
/// buffer and indexes it per message.
class thunk_table {
 public:
  /// Distinct (Handler, Args...) instantiations a process may register.
  /// Each costs one registration, so 4096 is far beyond any real workload;
  /// the fixed capacity is what makes lock-free lookup trivially safe
  /// (entries never move).
  static constexpr std::uint32_t kMaxThunks = 4096;

  static thunk_table& instance() {
    static thunk_table t;
    return t;
  }

  std::uint32_t register_thunk(thunk_fn fn, const char* name) {
    const std::lock_guard lock(mutex_);
    const std::uint32_t id = count_.load(std::memory_order_relaxed);
    if (id >= kMaxThunks) {
      throw std::runtime_error("thunk_table: too many distinct RPC handler types");
    }
    table_[id] = fn;
    // Fold (id, mangled name) into the running fingerprint: identical
    // registration order and types <=> identical fingerprint.
    std::uint64_t fp = fingerprint_.load(std::memory_order_relaxed);
    fp = serial::fnv1a(&id, sizeof(id), fp);
    fp = serial::fnv1a(name, std::strlen(name), fp);
    fingerprint_.store(fp, std::memory_order_relaxed);
    count_.store(id + 1, std::memory_order_release);
    return id;
  }

  /// Lock-free dispatch lookup.  An id at or past the published count is a
  /// corrupted buffer (ids only travel after registration completed).
  [[nodiscard]] thunk_fn lookup(std::uint32_t id) const {
    if (id >= count_.load(std::memory_order_acquire)) {
      throw std::out_of_range("thunk_table: unknown handler id");
    }
    return table_[id];
  }

  /// Table base + published count for tight dispatch loops: validate ids
  /// against `published` and index `base` directly.
  [[nodiscard]] const thunk_fn* base() const noexcept { return table_.data(); }

  [[nodiscard]] std::uint32_t published() const noexcept {
    return count_.load(std::memory_order_acquire);
  }

  /// Order-and-type digest of the registry, exchanged by the socket
  /// backend's handshake.  Stable by the time any transport exists because
  /// all registration happens during static init.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_.load(std::memory_order_acquire);
  }

 private:
  std::array<thunk_fn, kMaxThunks> table_{};
  std::atomic<std::uint32_t> count_{0};
  std::atomic<std::uint64_t> fingerprint_{serial::kFnv1aBasis};
  std::mutex mutex_;
};

template <typename Handler, typename ArgsTuple>
struct invoker;

template <typename Handler, typename... Args>
struct invoker<Handler, std::tuple<Args...>> {
  static void invoke(communicator& c, serial::buffer_reader& rd) {
    std::tuple<Args...> args{};
    std::apply([&rd](auto&... unpacked) { serial::unpack(rd, unpacked...); }, args);
    Handler h{};
    if constexpr (std::is_invocable_v<Handler&, communicator&, Args&...>) {
      std::apply([&](auto&... unpacked) { h(c, unpacked...); }, args);
    } else {
      static_assert(std::is_invocable_v<Handler&, Args&...>,
                    "RPC handler must be callable as h(comm&, args...) or "
                    "h(args...)");
      std::apply([&](auto&... unpacked) { h(unpacked...); }, args);
    }
  }
};

/// The registration of one (Handler, Args...) pair.  The dynamic
/// initializer of `id` runs during static init of every process that could
/// ever send or receive this RPC (same binary => same instantiations), in a
/// fixed order, so ids agree across processes without communication.
template <typename Handler, typename... Args>
struct thunk_registration {
  static const std::uint32_t id;
};

template <typename Handler, typename... Args>
const std::uint32_t thunk_registration<Handler, Args...>::id =
    thunk_table::instance().register_thunk(
        &invoker<Handler, std::tuple<Args...>>::invoke,
        typeid(invoker<Handler, std::tuple<Args...>>).name());

/// The id for a (Handler, Args...) pair.  Compiles to a load of an
/// initialized constant; the registration side effect lives in the static
/// initializer above.
template <typename Handler, typename... Args>
inline std::uint32_t handler_id() {
  return thunk_registration<Handler, Args...>::id;
}

}  // namespace detail
}  // namespace tripoll::comm
