// serialize.hpp -- archive-style serialization of C++ values (cereal stand-in).
//
// TriPoll's RPC layer sends arbitrary user types between ranks: metadata can
// be labels, timestamps, strings or whole containers.  Following the paper
// (Sec. 4.1.2), structured message contents are serialized into
// variable-length byte arrays, concatenated into transport buffers, and
// deserialized back on the destination rank.
//
// Supported out of the box:
//   * trivially copyable types (integers, floats, enums, simple structs)
//   * std::string / std::string_view (write side)
//   * std::vector, std::array, std::pair, std::tuple, std::optional
//   * std::map / std::unordered_map / std::set / std::unordered_set
//   * any user type exposing `void serialize(Archive&)` applied to both
//     a writer archive and a reader archive (cereal-style single function)
//
// Sizes are varint-encoded, so small containers cost one length byte.
#pragma once

#include <array>
#include <compare>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "serial/buffer.hpp"

namespace tripoll::serial {

class writer;
class reader;

/// Upper bound of one encoded varint: 64 bits / 7 bits-per-byte, rounded up.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Encode `v` as LEB128 into `out` (which must hold kMaxVarintBytes);
/// returns the number of bytes written.  The raw-buffer twin of
/// writer::write_varint, shared with the snapshot column codecs
/// (graph/snapshot.hpp) that encode outside an archive.
[[nodiscard]] inline std::size_t varint_encode(std::byte* out, std::uint64_t v) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::byte>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  out[n++] = static_cast<std::byte>(v);
  return n;
}

/// Decode one LEB128 varint from [p, end), advancing `p` past it.  Throws
/// deserialize_error on truncation or a continuation chain past 64 bits.
[[nodiscard]] inline std::uint64_t varint_decode(const std::byte*& p, const std::byte* end) {
  std::uint64_t v = 0;
  int shift = 0;
  const std::byte* q = p;
  while (q != end) {
    const auto byte = static_cast<std::uint8_t>(*q++);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      p = q;
      return v;
    }
    shift += 7;
    if (shift >= 64) throw deserialize_error("varint too long");
  }
  throw deserialize_error("varint: read past end of buffer");
}

/// ZigZag-map a signed delta onto the unsigned varint domain so small
/// negative values stay short (-1 -> 1, 1 -> 2, ...).  Columns sorted by
/// the <+ order key -- not by raw id -- produce deltas of either sign, so
/// the snapshot delta codecs always go through this mapping.
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

namespace detail {

/// Opt-out marker: a trivially copyable type whose wire format must go
/// through its serialize() member declares
/// `static constexpr bool tripoll_force_member_serialize = true;`.
/// The canonical case is a struct holding a std::string_view: the struct is
/// memcpy-able, but the view's interior pointer is meaningless on the
/// destination rank -- the archive path re-points it into the received
/// payload instead.
template <typename T>
concept forced_member_serialize = requires {
  { T::tripoll_force_member_serialize } -> std::convertible_to<bool>;
} && T::tripoll_force_member_serialize;

/// A type is bitwise-serializable when memcpy round-trips it.  Pointers are
/// excluded: addresses are meaningless on another rank even in a simulated
/// runtime, and catching them at compile time avoids an entire bug class.
/// std::string_view is excluded for the same reason (it is trivially
/// copyable but carries a pointer); it serializes through its dedicated
/// traits specialization as length + bytes.
template <typename T>
concept bitwise = std::is_trivially_copyable_v<T> && !std::is_pointer_v<T> &&
                  !std::is_same_v<T, std::string_view> && !forced_member_serialize<T>;

/// Random-access iterator that materializes T values out of a raw
/// (possibly unaligned -- payload fields sit behind varints) byte stream
/// via memcpy.  Lets vector::assign copy-construct elements straight from
/// wire bytes with no value-initialization pass and no aliasing/alignment
/// UB; compilers collapse the per-element memcpy into a vectorized copy.
template <typename T>
class raw_read_iterator {
 public:
  using iterator_category = std::random_access_iterator_tag;
  using value_type = T;
  using difference_type = std::ptrdiff_t;
  using pointer = const T*;
  using reference = T;

  raw_read_iterator() = default;
  explicit raw_read_iterator(const std::byte* p) noexcept : p_(p) {}

  [[nodiscard]] T operator*() const noexcept {
    T t;
    std::memcpy(&t, p_, sizeof(T));
    return t;
  }

  [[nodiscard]] T operator[](difference_type n) const noexcept { return *(*this + n); }

  raw_read_iterator& operator++() noexcept { p_ += sizeof(T); return *this; }
  raw_read_iterator operator++(int) noexcept { auto t = *this; ++*this; return t; }
  raw_read_iterator& operator--() noexcept { p_ -= sizeof(T); return *this; }
  raw_read_iterator operator--(int) noexcept { auto t = *this; --*this; return t; }
  raw_read_iterator& operator+=(difference_type n) noexcept {
    p_ += n * static_cast<difference_type>(sizeof(T));
    return *this;
  }
  raw_read_iterator& operator-=(difference_type n) noexcept { return *this += -n; }
  [[nodiscard]] raw_read_iterator operator+(difference_type n) const noexcept {
    auto t = *this;
    return t += n;
  }
  [[nodiscard]] friend raw_read_iterator operator+(difference_type n,
                                                   raw_read_iterator it) noexcept {
    return it + n;
  }
  [[nodiscard]] raw_read_iterator operator-(difference_type n) const noexcept {
    auto t = *this;
    return t -= n;
  }
  [[nodiscard]] difference_type operator-(raw_read_iterator o) const noexcept {
    return (p_ - o.p_) / static_cast<difference_type>(sizeof(T));
  }
  [[nodiscard]] bool operator==(const raw_read_iterator&) const = default;
  [[nodiscard]] auto operator<=>(const raw_read_iterator&) const = default;

 private:
  const std::byte* p_ = nullptr;
};

// The by-value reference means the Cpp17 random-access tag is a pragmatic
// overstatement (Cpp17ForwardIterator wants a true reference), advertised so
// vector::assign precomputes the distance and allocates once on mainstream
// standard libraries; the C++20 iterator concept is genuinely satisfied.
static_assert(std::random_access_iterator<raw_read_iterator<std::uint64_t>>);

template <typename T>
concept has_member_serialize_w =
    requires(T& t, writer& a) { t.serialize(a); };

template <typename T>
concept has_member_serialize_r =
    requires(T& t, reader& a) { t.serialize(a); };

}  // namespace detail

/// Writer archive: `archive(a, b, c)` appends each value to the buffer.
class writer {
 public:
  explicit writer(byte_buffer& sink) noexcept : sink_(&sink) {}

  template <typename... Ts>
  void operator()(const Ts&... values) {
    (write_one(values), ...);
  }

  /// Varint (LEB128) encoding for sizes; small values take one byte.
  /// Bytes are stored straight into the sink through prepare()/commit():
  /// one capacity check per varint, no intermediate copies.
  void write_varint(std::uint64_t v) {
    std::byte* out = sink_->prepare(kMaxVarintBytes);
    sink_->commit(varint_encode(out, v));
  }

  void write_raw(const void* data, std::size_t n) { sink_->append(data, n); }

  [[nodiscard]] byte_buffer& sink() noexcept { return *sink_; }

 private:
  template <typename T>
  void write_one(const T& value);

  byte_buffer* sink_;
};

/// Reader archive: `archive(a, b, c)` fills each value from the buffer.
class reader {
 public:
  explicit reader(buffer_reader& source) noexcept : source_(&source) {}

  template <typename... Ts>
  void operator()(Ts&... values) {
    (read_one(values), ...);
  }

  /// Varint decode against the raw cursor: one bounds condition on the
  /// bytes remaining instead of a checked single-byte read per byte.
  [[nodiscard]] std::uint64_t read_varint() {
    const std::byte* p = source_->cursor();
    const std::byte* const begin = p;
    const std::uint64_t v = varint_decode(p, begin + source_->remaining());
    source_->advance(static_cast<std::size_t>(p - begin));
    return v;
  }

  void read_raw(void* dst, std::size_t n) { source_->read(dst, n); }

  [[nodiscard]] buffer_reader& source() noexcept { return *source_; }

 private:
  template <typename T>
  void read_one(T& value);

  buffer_reader* source_;
};

// ---------------------------------------------------------------------------
// serialize_traits: one specialization per supported family.  The primary
// template handles bitwise types and user types with member serialize().
// ---------------------------------------------------------------------------

template <typename T, typename Enable = void>
struct serialize_traits {
  static void write(writer& ar, const T& v) {
    if constexpr (std::is_empty_v<T>) {
      // Stateless types occupy zero wire bytes.  Never memcpy through the
      // address of an empty object: inside std::tuple, empty-base
      // optimization can alias it with a *different* element's storage.
      (void)ar;
      (void)v;
    } else if constexpr (detail::bitwise<T>) {
      ar.write_raw(&v, sizeof(T));
    } else {
      static_assert(detail::has_member_serialize_w<T>,
                    "type is neither bitwise-serializable nor provides "
                    "serialize(Archive&)");
      // serialize() is the cereal-style bidirectional hook; it only reads
      // from the value on the write side.
      const_cast<T&>(v).serialize(ar);
    }
  }
  static void read(reader& ar, T& v) {
    if constexpr (std::is_empty_v<T>) {
      (void)ar;
      (void)v;
    } else if constexpr (detail::bitwise<T>) {
      ar.read_raw(&v, sizeof(T));
    } else {
      static_assert(detail::has_member_serialize_r<T>,
                    "type is neither bitwise-serializable nor provides "
                    "serialize(Archive&)");
      v.serialize(ar);
    }
  }
};

template <>
struct serialize_traits<std::string> {
  static void write(writer& ar, const std::string& s) {
    ar.write_varint(s.size());
    ar.write_raw(s.data(), s.size());
  }
  static void read(reader& ar, std::string& s) {
    const auto n = ar.read_varint();
    // take() bounds-checks against the remaining bytes.  Shrinking resize +
    // memcpy touches each byte once; only a growing destination goes
    // through assign() (which also avoids the value-initialization a
    // grow-resize would pay).
    const auto bytes = ar.source().take(n);
    if (n == 0) {
      s.clear();
    } else if (n <= s.size()) {
      s.resize(n);
      std::memcpy(s.data(), bytes.data(), n);
    } else {
      s.assign(reinterpret_cast<const char*>(bytes.data()), n);
    }
  }
};

/// string_view round-trips against the same wire format as std::string.  On
/// the read side the view points INTO the source buffer (zero copy): it is
/// valid only while the buffer lives -- for RPC handlers, until the handler
/// returns.  Handlers that keep the text must copy it into owning storage.
template <>
struct serialize_traits<std::string_view> {
  static void write(writer& ar, std::string_view s) {
    ar.write_varint(s.size());
    ar.write_raw(s.data(), s.size());
  }
  static void read(reader& ar, std::string_view& s) {
    const auto n = ar.read_varint();
    if (n == 0) {
      s = {};
      return;
    }
    const auto bytes = ar.source().take(n);
    s = std::string_view(reinterpret_cast<const char*>(bytes.data()), n);
  }
};

/// Borrowed view over the wire encoding of a vector<T> for bitwise T: same
/// format (varint count + packed elements), but deserialization takes no
/// copy -- the view points into the drained transport payload and its
/// iterators materialize elements via unaligned loads (elements sit behind
/// varints, so the bytes are not suitably aligned for a real std::span).
/// Lifetime matches the source buffer: for RPC handlers, the view dies with
/// the handler.  Senders can pass `as_wire_span(vec)` so both sides of an
/// RPC agree on the argument type while the wire bytes stay identical to
/// sending the vector itself.
template <typename T>
class wire_span {
  static_assert(detail::bitwise<T>,
                "wire_span elements must be bitwise-serializable; use "
                "std::vector for types with serialize()");

 public:
  using value_type = T;
  using const_iterator = detail::raw_read_iterator<T>;

  wire_span() = default;
  wire_span(const std::byte* data, std::size_t count) noexcept
      : data_(data), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] const_iterator begin() const noexcept { return const_iterator(data_); }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(data_ + count_ * sizeof(T));
  }

  [[nodiscard]] T operator[](std::size_t i) const noexcept {
    return begin()[static_cast<std::ptrdiff_t>(i)];
  }
  [[nodiscard]] T front() const noexcept { return *begin(); }
  [[nodiscard]] T back() const noexcept { return (*this)[count_ - 1]; }

  /// Raw byte view of the element stream (wire encoding minus the count).
  [[nodiscard]] const std::byte* data() const noexcept { return data_; }

 private:
  const std::byte* data_ = nullptr;
  std::size_t count_ = 0;
};

/// View a vector's elements as a wire_span for sending (the vector's
/// contiguous storage is trivially also a valid element stream).
template <typename T, typename Alloc>
[[nodiscard]] wire_span<T> as_wire_span(const std::vector<T, Alloc>& v) noexcept {
  return wire_span<T>(reinterpret_cast<const std::byte*>(v.data()), v.size());
}

template <typename T>
struct serialize_traits<wire_span<T>> {
  static void write(writer& ar, const wire_span<T>& s) {
    ar.write_varint(s.size());
    // A sender-side wire_span always views contiguous element storage (a
    // vector or a received payload), so the raw bytes are the encoding.
    ar.write_raw(s.data(), s.size() * sizeof(T));
  }
  static void read(reader& ar, wire_span<T>& s) {
    const auto n = ar.read_varint();
    // Guard n*sizeof(T) against wrap before trusting the length prefix.
    if (n > ar.source().remaining() / sizeof(T)) {
      throw deserialize_error("wire_span length prefix exceeds buffer");
    }
    const auto bytes = ar.source().take(n * sizeof(T));
    s = wire_span<T>(bytes.data(), n);
  }
};

template <typename T, typename Alloc>
struct serialize_traits<std::vector<T, Alloc>> {
  static void write(writer& ar, const std::vector<T, Alloc>& v) {
    ar.write_varint(v.size());
    if constexpr (detail::bitwise<T>) {
      ar.write_raw(v.data(), v.size() * sizeof(T));
    } else {
      for (const auto& e : v) ar(e);
    }
  }
  static void read(reader& ar, std::vector<T, Alloc>& v) {
    const auto n = ar.read_varint();
    if constexpr (detail::bitwise<T>) {
      // Guard n*sizeof(T) against wrap before trusting the length prefix.
      if (n > ar.source().remaining() / sizeof(T)) {
        throw deserialize_error("vector length prefix exceeds buffer");
      }
      const auto bytes = ar.source().take(n * sizeof(T));
      if (n == 0) {
        v.clear();
      } else if (n <= v.size()) {
        // Shrinking resize destroys (trivially) without initializing.
        v.resize(n);
        std::memcpy(v.data(), bytes.data(), n * sizeof(T));
      } else {
        // assign() through the memcpy-ing iterator copy-constructs straight
        // from wire bytes -- no value-initialization pass, unlike a growing
        // resize()+memcpy.
        v.assign(detail::raw_read_iterator<T>(bytes.data()),
                 detail::raw_read_iterator<T>(bytes.data() + n * sizeof(T)));
      }
    } else {
      v.clear();
      v.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        ar(v.emplace_back());
      }
    }
  }
};

template <typename T, std::size_t N>
struct serialize_traits<std::array<T, N>> {
  static void write(writer& ar, const std::array<T, N>& v) {
    if constexpr (detail::bitwise<T>) {
      ar.write_raw(v.data(), N * sizeof(T));
    } else {
      for (const auto& e : v) ar(e);
    }
  }
  static void read(reader& ar, std::array<T, N>& v) {
    if constexpr (detail::bitwise<T>) {
      ar.read_raw(v.data(), N * sizeof(T));
    } else {
      for (auto& e : v) ar(e);
    }
  }
};

template <typename A, typename B>
struct serialize_traits<std::pair<A, B>> {
  static void write(writer& ar, const std::pair<A, B>& p) { ar(p.first, p.second); }
  static void read(reader& ar, std::pair<A, B>& p) { ar(p.first, p.second); }
};

template <typename... Ts>
struct serialize_traits<std::tuple<Ts...>> {
  static void write(writer& ar, const std::tuple<Ts...>& t) {
    std::apply([&](const auto&... es) { ar(es...); }, t);
  }
  static void read(reader& ar, std::tuple<Ts...>& t) {
    std::apply([&](auto&... es) { ar(es...); }, t);
  }
};

template <typename T>
struct serialize_traits<std::optional<T>> {
  static void write(writer& ar, const std::optional<T>& o) {
    const std::uint8_t engaged = o.has_value() ? 1 : 0;
    ar(engaged);
    if (o) ar(*o);
  }
  static void read(reader& ar, std::optional<T>& o) {
    std::uint8_t engaged = 0;
    ar(engaged);
    if (engaged != 0) {
      ar(o.emplace());
    } else {
      o.reset();
    }
  }
};

namespace detail {

template <typename Map>
struct map_traits {
  static void write(writer& ar, const Map& m) {
    ar.write_varint(m.size());
    for (const auto& [k, v] : m) ar(k, v);
  }
  static void read(reader& ar, Map& m) {
    const auto n = ar.read_varint();
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename Map::key_type k{};
      typename Map::mapped_type v{};
      ar(k, v);
      m.emplace(std::move(k), std::move(v));
    }
  }
};

template <typename Set>
struct set_traits {
  static void write(writer& ar, const Set& s) {
    ar.write_varint(s.size());
    for (const auto& e : s) ar(e);
  }
  static void read(reader& ar, Set& s) {
    const auto n = ar.read_varint();
    s.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      typename Set::key_type e{};
      ar(e);
      s.emplace(std::move(e));
    }
  }
};

}  // namespace detail

template <typename K, typename V, typename C, typename A>
struct serialize_traits<std::map<K, V, C, A>> : detail::map_traits<std::map<K, V, C, A>> {};

template <typename K, typename V, typename H, typename E, typename A>
struct serialize_traits<std::unordered_map<K, V, H, E, A>>
    : detail::map_traits<std::unordered_map<K, V, H, E, A>> {};

template <typename K, typename C, typename A>
struct serialize_traits<std::set<K, C, A>> : detail::set_traits<std::set<K, C, A>> {};

template <typename K, typename H, typename E, typename A>
struct serialize_traits<std::unordered_set<K, H, E, A>>
    : detail::set_traits<std::unordered_set<K, H, E, A>> {};

template <typename T>
void writer::write_one(const T& value) {
  serialize_traits<std::remove_cvref_t<T>>::write(*this, value);
}

template <typename T>
void reader::read_one(T& value) {
  serialize_traits<std::remove_cvref_t<T>>::read(*this, value);
}

// ---------------------------------------------------------------------------
// Convenience entry points.
// ---------------------------------------------------------------------------

/// Serialize `values...` onto the end of `buf`.
template <typename... Ts>
void pack(byte_buffer& buf, const Ts&... values) {
  writer ar(buf);
  ar(values...);
}

/// Deserialize `values...` from `rd` in order.
template <typename... Ts>
void unpack(buffer_reader& rd, Ts&... values) {
  reader ar(rd);
  ar(values...);
}

/// Round-trip helper primarily for tests: serialize then deserialize a copy.
template <typename T>
[[nodiscard]] T roundtrip(const T& value) {
  byte_buffer buf;
  pack(buf, value);
  buffer_reader rd(buf.view());
  T out{};
  unpack(rd, out);
  return out;
}

/// Byte count a value would occupy when serialized (used by the Push-Pull
/// dry-run cost model and by tests).
template <typename... Ts>
[[nodiscard]] std::size_t packed_size(const Ts&... values) {
  byte_buffer buf;
  pack(buf, values...);
  return buf.size();
}

}  // namespace tripoll::serial
