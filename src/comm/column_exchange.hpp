// column_exchange.hpp -- batched scatter of column-shaped entries.
//
// Bulk phases (graph construction, the degeneracy peel) route millions of
// small same-shaped entries to their owner ranks.  A column_exchange stages
// the entries bound for each rank as parallel column vectors and ships them
// as ONE RPC per ~config::buffer_capacity bytes of entries, instead of one
// RPC per entry: bitwise columns travel as serial::wire_span, columns of an
// empty type as a bare count, anything else (strings) through the archive.
// Entries a rank addresses to itself skip the transport.  After flush() and
// a barrier, inbox() holds every entry sent to this rank; entries from one
// sender keep their send order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "serial/serialize.hpp"

namespace tripoll::comm {

template <typename... Ts>
class column_exchange {
  static_assert(sizeof...(Ts) > 0 && !std::is_empty_v<std::tuple_element_t<0, std::tuple<Ts...>>>,
                "the first column counts the entries and must not be an empty type");

 public:
  using columns = std::tuple<std::vector<Ts>...>;
  using self = column_exchange<Ts...>;

  explicit column_exchange(communicator& c)
      : comm_(&c),
        handle_(c.register_object(*this)),
        out_(static_cast<std::size_t>(c.size())),
        batch_entries_(std::max<std::size_t>(1, c.cfg().buffer_capacity / entry_bytes())) {}

  ~column_exchange() { comm_->deregister_object(handle_); }

  column_exchange(const column_exchange&) = delete;
  column_exchange& operator=(const column_exchange&) = delete;

  /// Stage one entry for rank `dest`; a full batch leaves at once.
  void push(int dest, const Ts&... values) {
    if (dest == comm_->rank()) {
      push_into(inbox_, values...);
      return;
    }
    auto& staged = out_[static_cast<std::size_t>(dest)];
    push_into(staged, values...);
    if (std::get<0>(staged).size() >= batch_entries_) ship(dest);
  }

  /// Ship every partial batch.  Follow with a barrier before reading inbox().
  void flush() {
    for (int dest = 0; dest < comm_->size(); ++dest) {
      if (!std::get<0>(out_[static_cast<std::size_t>(dest)]).empty()) ship(dest);
    }
  }

  /// Entries delivered to this rank (see the header for their order).
  [[nodiscard]] columns& inbox() noexcept { return inbox_; }
  [[nodiscard]] std::size_t inbox_size() const noexcept { return std::get<0>(inbox_).size(); }

  /// Drop the inbox's entries and storage.
  void release_inbox() noexcept { inbox_ = columns{}; }

 private:
  [[nodiscard]] static constexpr std::size_t entry_bytes() noexcept {
    return (std::size_t{0} + ... + (std::is_empty_v<Ts> ? 0 : sizeof(Ts)));
  }

  static void push_into(columns& cols, const Ts&... values) {
    std::apply([&](auto&... col) { (col.push_back(values), ...); }, cols);
  }

  /// A staged column as an RPC argument.
  template <typename T>
  [[nodiscard]] static decltype(auto) wire_arg(const std::vector<T>& col) {
    if constexpr (std::is_empty_v<T>) {
      return static_cast<std::uint64_t>(col.size());
    } else if constexpr (serial::detail::bitwise<T>) {
      return serial::as_wire_span(col);
    } else {
      return (col);
    }
  }

  template <typename T, typename Arg>
  static void append_column(std::vector<T>& col, const Arg& received) {
    if constexpr (std::is_empty_v<T>) {
      col.resize(col.size() + received);
    } else {
      col.insert(col.end(), received.begin(), received.end());
    }
  }

  template <std::size_t... I, typename... Args>
  void append_batch(std::index_sequence<I...>, const Args&... received) {
    (append_column(std::get<I>(inbox_), received), ...);
  }

  void ship(int dest) {
    auto& staged = out_[static_cast<std::size_t>(dest)];
    std::apply(
        [&](const auto&... col) { comm_->async(dest, batch_handler{}, handle_, wire_arg(col)...); },
        staged);
    std::apply([](auto&... col) { (col.clear(), ...); }, staged);
  }

  struct batch_handler {
    template <typename... Args>
    void operator()(communicator& c, dist_handle<self> h, const Args&... received) {
      c.resolve(h).append_batch(std::index_sequence_for<Ts...>{}, received...);
    }
  };

  communicator* comm_;
  dist_handle<self> handle_;
  std::vector<columns> out_;  ///< per-destination staging
  std::size_t batch_entries_;
  columns inbox_;
};

}  // namespace tripoll::comm
