// packed_batch.hpp -- the packed wire form of the survey's entry batches.
//
// Both batch payloads of the survey engine (core/survey.hpp) -- the
// candidate list of a wedge batch and the entry list of a pulled adjacency
// Adjm+(q) -- are lists of (r, r_rank, projected edge metadata) in <+ key
// order, which compares rank first.  They travel as
//
//   varint n | varint nbytes | n x ( varint zigzag(r_rank - prev_rank)
//                                    varint r
//                                    metadata through the archive )
//
// with prev_rank starting at 0.  Rank deltas are taken mod 2^64, so any u64
// sequence round-trips: sorted input only makes the deltas small, and an
// unsorted batch costs bytes, never correctness.  nbytes (the byte length of
// the n entries) lets a receiver skip the batch in O(1) -- the owning
// thread hands an undecoded batch to a worker task -- and bounds n before
// anything is allocated.
//
// One type serves both ends of an RPC, like serial::wire_span: the sender
// builds packed_batch::encode(fill) and `fill` pushes the entries straight
// into the send buffer while the RPC is serialized; the receiver gets a view
// of the encoded entries inside the drained payload and decodes them into
// reusable scratch on whichever thread intersects the batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/types.hpp"
#include "serial/serialize.hpp"

namespace tripoll::core {

/// One decoded batch entry: enough to merge against an adjacency list under
/// the <+ order, plus the projected edge metadata.  [[no_unique_address]]
/// lets a dropped (graph::none) projection cost zero struct bytes.
template <typename EdgeMeta>
struct batch_entry {
  graph::vertex_id r = 0;
  std::uint64_t r_rank = 0;  ///< r's <+ ordering rank (degree or peel rank)
  [[no_unique_address]] EdgeMeta meta{};

  [[nodiscard]] graph::order_key key() const noexcept {
    return graph::make_order_key(r, r_rank);
  }
};

/// Appends entries to the batch being serialized.  Handed to the fill
/// function of packed_batch::encode().
template <typename EdgeMeta>
class batch_encoder {
 public:
  explicit batch_encoder(serial::writer& ar) noexcept : ar_(&ar) {}

  /// `meta` must encode like EdgeMeta: EdgeMeta itself, or -- for a
  /// string_view wire type -- an owning string (same length + bytes).
  template <typename M>
  void push(graph::vertex_id r, std::uint64_t r_rank, const M& meta) {
    static_assert(std::is_same_v<M, EdgeMeta> ||
                      (std::is_same_v<EdgeMeta, std::string_view> &&
                       std::is_convertible_v<const M&, std::string_view>),
                  "batch metadata must encode as the batch's wire type");
    serial::byte_buffer& sink = ar_->sink();
    std::byte* out = sink.prepare(2 * serial::kMaxVarintBytes);
    std::size_t k = serial::varint_encode(
        out, serial::zigzag_encode(static_cast<std::int64_t>(r_rank - prev_rank_)));
    k += serial::varint_encode(out + k, r);
    sink.commit(k);
    (*ar_)(meta);
    prev_rank_ = r_rank;
    ++count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  serial::writer* ar_;
  std::uint64_t prev_rank_ = 0;
  std::uint64_t count_ = 0;
};

/// A batch of entries in the packed layout above.  A sender-side batch
/// refers to its fill function (which must outlive the async() call that
/// serializes it); a receiver-side batch views bytes of the drained payload
/// and lives as long as that payload does.
template <typename EdgeMeta>
class packed_batch {
 public:
  using entry = batch_entry<EdgeMeta>;
  using encoder = batch_encoder<EdgeMeta>;

  /// Smallest encoding of one entry: two one-byte varints plus the fixed
  /// size of bitwise metadata.  A count prefix promising more entries than
  /// nbytes can hold is refused on read, before any allocation.
  static constexpr std::size_t kMinEntryBytes =
      2 + (serial::detail::bitwise<EdgeMeta> && !std::is_empty_v<EdgeMeta>
               ? sizeof(EdgeMeta)
               : 0);

  packed_batch() = default;

  /// Sender side: `fill(encoder&)` pushes the entries when the batch is
  /// serialized (once per destination).
  template <typename Fill>
  [[nodiscard]] static packed_batch encode(const Fill& fill) noexcept {
    packed_batch b;
    b.fill_ctx_ = &fill;
    b.fill_ = [](const void* ctx, encoder& enc) { (*static_cast<const Fill*>(ctx))(enc); };
    return b;
  }
  template <typename Fill>
  static packed_batch encode(const Fill&&) = delete;  // the fill must outlive the send

  /// Entry count and encoded entry bytes of a received batch.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t byte_size() const noexcept { return bytes_; }

  /// Decode a received batch into `out` (resized to size()).  String
  /// metadata comes back as views into the payload.  Throws
  /// serial::deserialize_error on malformed bytes.
  void decode(std::vector<entry>& out) const {
    out.resize(count_);
    const std::byte* p = data_;
    const std::byte* const end = data_ + bytes_;
    std::uint64_t rank = 0;
    for (entry& e : out) {
      rank += static_cast<std::uint64_t>(serial::zigzag_decode(serial::varint_decode(p, end)));
      e.r_rank = rank;
      e.r = serial::varint_decode(p, end);
      if constexpr (!std::is_empty_v<EdgeMeta>) {
        serial::buffer_reader rd(p, static_cast<std::size_t>(end - p));
        serial::reader ar(rd);
        ar(e.meta);
        p += rd.position();
      }
    }
    if (p != end) {
      throw serial::deserialize_error("packed_batch: bytes left after the last entry");
    }
  }

  void write(serial::writer& ar) const {
    if (fill_ == nullptr) {  // a received batch, re-sent verbatim
      ar.write_varint(count_);
      ar.write_varint(bytes_);
      ar.write_raw(data_, bytes_);
      return;
    }
    // The header's size is known only after the entries are written:
    // reserve the widest header, encode, then close the gap.
    constexpr std::size_t kHeader = 2 * serial::kMaxVarintBytes;
    serial::byte_buffer& sink = ar.sink();
    const std::size_t at = sink.size();
    (void)sink.append_raw(kHeader);
    encoder enc(ar);
    fill_(fill_ctx_, enc);
    std::byte head[kHeader];
    std::size_t h = serial::varint_encode(head, enc.count());
    h += serial::varint_encode(head + h, sink.size() - at - kHeader);
    sink.replace_shrink(at, kHeader, head, h);
  }

  [[nodiscard]] static packed_batch read(serial::reader& ar) {
    const std::uint64_t n = ar.read_varint();
    const std::uint64_t nbytes = ar.read_varint();
    if (nbytes > ar.source().remaining()) {
      throw serial::deserialize_error("packed_batch: byte length exceeds buffer");
    }
    if (n > nbytes / kMinEntryBytes) {
      throw serial::deserialize_error("packed_batch: entry count exceeds its bytes");
    }
    packed_batch b;
    b.data_ = ar.source().take(nbytes).data();
    b.count_ = n;
    b.bytes_ = nbytes;
    return b;
  }

 private:
  const std::byte* data_ = nullptr;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
  const void* fill_ctx_ = nullptr;
  void (*fill_)(const void*, encoder&) = nullptr;
};

}  // namespace tripoll::core

namespace tripoll::serial {

template <typename EdgeMeta>
struct serialize_traits<core::packed_batch<EdgeMeta>> {
  static void write(writer& ar, const core::packed_batch<EdgeMeta>& b) { b.write(ar); }
  static void read(reader& ar, core::packed_batch<EdgeMeta>& b) {
    b = core::packed_batch<EdgeMeta>::read(ar);
  }
};

}  // namespace tripoll::serial
