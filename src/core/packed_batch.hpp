// packed_batch.hpp -- the packed wire forms of the survey's entry batches.
//
// Both batch payloads of the survey engine (core/survey.hpp) are lists of
// (r, projected edge metadata); they differ in the key each entry carries.
//
// The candidate list of a wedge batch (batch_key::ranked) is in <+ key
// order, which compares rank first, and Rank(q) merges it against Adjm+(q),
// so each entry carries r's rank:
//
//   varint n | varint nbytes | n x ( varint zigzag(r_rank - prev_rank)
//                                    varint r
//                                    metadata through the archive )
//
// A pulled adjacency Adjm+(q) (batch_key::id) is probed by id alone on the
// receiving rank, so it is an id set, sent sorted by r:
//
//   varint n | varint nbytes | n x ( varint (r - prev_r)
//                                    metadata through the archive )
//
// with prev_rank and prev_r starting at 0.  Deltas are taken mod 2^64, so
// any u64 sequence round-trips: sorted input only makes the deltas small,
// and an unsorted batch costs bytes, never correctness.  nbytes (the byte
// length of the n entries) lets a receiver skip the batch in O(1) -- the
// owning thread hands an undecoded batch to a worker task -- and bounds n
// before anything is allocated.
//
// One type serves both ends of an RPC, like serial::wire_span: the sender
// builds packed_batch::encode(fill) and `fill` pushes the entries straight
// into the send buffer while the RPC is serialized; the receiver gets a view
// of the encoded entries inside the drained payload and decodes them into
// reusable scratch on whichever thread closes the batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/types.hpp"
#include "serial/serialize.hpp"

namespace tripoll::core {

/// The key a batch's entries carry on the wire (layouts above).
enum class batch_key {
  ranked,  ///< (r_rank, r): wedge candidates, merged under <+
  id,      ///< r alone, ascending: pulled lists, probed by id
};

/// One decoded ranked entry: enough to merge against an adjacency list
/// under the <+ order, plus the projected edge metadata.
/// [[no_unique_address]] lets a dropped (graph::none) projection cost zero
/// struct bytes.
template <typename EdgeMeta>
struct batch_entry {
  graph::vertex_id r = 0;
  std::uint64_t r_rank = 0;  ///< r's <+ ordering rank (degree or peel rank)
  [[no_unique_address]] EdgeMeta meta{};

  [[nodiscard]] graph::order_key key() const noexcept {
    return graph::make_order_key(r, r_rank);
  }
};

/// One decoded id-set entry.
template <typename EdgeMeta>
struct id_entry {
  graph::vertex_id r = 0;
  [[no_unique_address]] EdgeMeta meta{};
};

/// Appends entries to the batch being serialized.  Handed to the fill
/// function of packed_batch::encode().
template <typename EdgeMeta, batch_key Key>
class batch_encoder {
 public:
  explicit batch_encoder(serial::writer& ar) noexcept : ar_(&ar) {}

  /// `meta` must encode like EdgeMeta: EdgeMeta itself, or -- for a
  /// string_view wire type -- an owning string (same length + bytes).
  template <typename M>
    requires(Key == batch_key::ranked)
  void push(graph::vertex_id r, std::uint64_t r_rank, const M& meta) {
    serial::byte_buffer& sink = ar_->sink();
    std::byte* out = sink.prepare(2 * serial::kMaxVarintBytes);
    std::size_t k = serial::varint_encode(
        out, serial::zigzag_encode(static_cast<std::int64_t>(r_rank - prev_)));
    k += serial::varint_encode(out + k, r);
    sink.commit(k);
    prev_ = r_rank;
    push_meta(meta);
  }

  template <typename M>
    requires(Key == batch_key::id)
  void push(graph::vertex_id r, const M& meta) {
    serial::byte_buffer& sink = ar_->sink();
    sink.commit(serial::varint_encode(sink.prepare(serial::kMaxVarintBytes), r - prev_));
    prev_ = r;
    push_meta(meta);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  template <typename M>
  void push_meta(const M& meta) {
    static_assert(std::is_same_v<M, EdgeMeta> ||
                      (std::is_same_v<EdgeMeta, std::string_view> &&
                       std::is_convertible_v<const M&, std::string_view>),
                  "batch metadata must encode as the batch's wire type");
    (*ar_)(meta);
    ++count_;
  }

  serial::writer* ar_;
  std::uint64_t prev_ = 0;  ///< the previous entry's rank (ranked) or id
  std::uint64_t count_ = 0;
};

/// A batch of entries in one of the packed layouts above.  A sender-side
/// batch refers to its fill function (which must outlive the async() call
/// that serializes it); a receiver-side batch views bytes of the drained
/// payload and lives as long as that payload does.
template <typename EdgeMeta, batch_key Key = batch_key::ranked>
class packed_batch {
 public:
  using entry =
      std::conditional_t<Key == batch_key::ranked, batch_entry<EdgeMeta>, id_entry<EdgeMeta>>;
  using encoder = batch_encoder<EdgeMeta, Key>;

  /// Smallest encoding of one entry: a one-byte varint per key field plus
  /// the fixed size of bitwise metadata.  A count prefix promising more
  /// entries than nbytes can hold is refused on read, before any
  /// allocation.
  static constexpr std::size_t kMinEntryBytes =
      (Key == batch_key::ranked ? 2 : 1) +
      (serial::detail::bitwise<EdgeMeta> && !std::is_empty_v<EdgeMeta> ? sizeof(EdgeMeta) : 0);

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
    std::uint64_t prev = 0;
    for (entry& e : out) {
      if constexpr (Key == batch_key::ranked) {
        prev += static_cast<std::uint64_t>(serial::zigzag_decode(serial::varint_decode(p, end)));
        e.r_rank = prev;
        e.r = serial::varint_decode(p, end);
      } else {
        prev += serial::varint_decode(p, end);
        e.r = prev;
      }
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

template <typename EdgeMeta, core::batch_key Key>
struct serialize_traits<core::packed_batch<EdgeMeta, Key>> {
  static void write(writer& ar, const core::packed_batch<EdgeMeta, Key>& b) { b.write(ar); }
  static void read(reader& ar, core::packed_batch<EdgeMeta, Key>& b) {
    b = core::packed_batch<EdgeMeta, Key>::read(ar);
  }
};

}  // namespace tripoll::serial
