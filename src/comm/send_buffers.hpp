// send_buffers.hpp -- per-destination RPC staging, the one send-buffer rule.
//
// Every RPC sender in the runtime -- the communicator and each survey worker
// thread -- batches its calls the same way (the paper's YGM buffering, Sec.
// 4.1.1): an RPC is appended to its destination's buffer as `varint
// handler_id | args...`, and the buffer goes to the transport when it
// reaches config::buffer_capacity bytes or at the owner's next flush.  Each
// RPC counts as one logical message, so volume_bytes and messages are sums
// of per-RPC sizes and do not depend on how RPCs are grouped into buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "comm/handler_registry.hpp"
#include "comm/transport.hpp"
#include "serial/buffer.hpp"
#include "serial/serialize.hpp"

namespace tripoll::comm {

/// One sender's per-destination buffers.  Not thread-safe: a sender owns its
/// instance; the transport it delivers to is.
class send_buffers {
 public:
  send_buffers(transport& t, int rank)
      : t_(&t),
        rank_(rank),
        capacity_(t.cfg().buffer_capacity),
        bufs_(static_cast<std::size_t>(t.nranks())),
        counts_(static_cast<std::size_t>(t.nranks()), 0) {}

  /// Append `Handler{}(dest_comm, args...)` to `dest`'s buffer; delivers the
  /// buffer once it holds buffer_capacity bytes.
  template <typename Handler, typename... Args>
  void async(int dest, Handler /*handler*/, const Args&... args) {
    static_assert(std::is_empty_v<Handler>,
                  "RPC handlers must be stateless; pass state as arguments");
    const std::uint32_t id = detail::handler_id<Handler, std::decay_t<Args>...>();
    auto& buf = bufs_[static_cast<std::size_t>(dest)];
    serial::writer w(buf);
    w.write_varint(id);
    w(args...);
    ++counts_[static_cast<std::size_t>(dest)];
    if (buf.size() >= capacity_) flush(dest);
  }

  /// Deliver every non-empty buffer.
  void flush_all() {
    for (int dest = 0; dest < static_cast<int>(bufs_.size()); ++dest) flush(dest);
  }

 private:
  void flush(int dest) {
    auto& buf = bufs_[static_cast<std::size_t>(dest)];
    if (buf.empty()) return;
    const std::uint64_t n = counts_[static_cast<std::size_t>(dest)];
    counts_[static_cast<std::size_t>(dest)] = 0;
    t_->deliver(rank_, dest, buf.release(), n);
  }

  transport* t_;
  int rank_;
  std::size_t capacity_;
  std::vector<serial::byte_buffer> bufs_;
  std::vector<std::uint64_t> counts_;
};

}  // namespace tripoll::comm
