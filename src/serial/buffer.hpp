// buffer.hpp -- flat byte buffer, frame header, bounds-checked reader.
//
// This is the lowest layer of the cereal stand-in used by the simulated
// distributed runtime: every RPC payload is serialized into a byte_buffer,
// handed to the transport as an opaque blob, and re-read on the destination
// rank through a buffer_reader.
//
// The buffer is deliberately NOT a std::vector<std::byte>: the hot path
// appends millions of small records per second and never reads storage it
// did not write, so growth leaves new capacity uninitialized (a vector
// value-initializes on resize/insert) and append compiles down to a
// bounds check plus memcpy.  A send buffer grows toward
// config::buffer_capacity and its block moves to the transport on flush;
// the allocator, not a pool, reuses freed blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>

namespace tripoll::serial {

/// Error thrown when a reader runs past the end of its buffer or a size
/// prefix is inconsistent with the remaining bytes.  Deserialization errors
/// are programming errors in matched serialize/deserialize pairs, but they
/// can also arise from corrupted transport buffers, so they are exceptions
/// rather than asserts.
class deserialize_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Growable, append-only byte sink backed by a flat heap block with
/// uninitialized growth.  All typed encoding lives in serialize.hpp.
/// Move-only: payloads are handed to the transport by move, never copied.
class byte_buffer {
 public:
  byte_buffer() = default;

  explicit byte_buffer(std::size_t reserve_bytes) { reserve(reserve_bytes); }

  byte_buffer(byte_buffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}

  byte_buffer& operator=(byte_buffer&& other) noexcept {
    if (this != &other) {
      delete[] data_;
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }

  byte_buffer(const byte_buffer&) = delete;
  byte_buffer& operator=(const byte_buffer&) = delete;

  ~byte_buffer() { delete[] data_; }

  /// Append `n` raw bytes from `src`.
  void append(const void* src, std::size_t n) {
    if (n == 0) return;  // empty containers hand in src == nullptr; memcpy
                         // forbids null even with n == 0
    if (size_ + n > capacity_) [[unlikely]] grow(size_ + n);
    std::memcpy(data_ + size_, src, n);
    size_ += n;
  }

  /// Append the contents of another buffer.
  void append(const byte_buffer& other) { append(other.data(), other.size()); }

  /// Reserve `n` writable bytes past the current end and return a pointer to
  /// them; the caller fills them and the size is already accounted.
  [[nodiscard]] std::byte* append_raw(std::size_t n) {
    if (size_ + n > capacity_) [[unlikely]] grow(size_ + n);
    std::byte* out = data_ + size_;
    size_ += n;
    return out;
  }

  /// Two-phase append for writers that know an upper bound but not the
  /// exact size (varints): prepare() guarantees `max_n` writable bytes past
  /// the end and returns the write cursor; commit() accounts the bytes
  /// actually written.
  [[nodiscard]] std::byte* prepare(std::size_t max_n) {
    if (size_ + max_n > capacity_) [[unlikely]] grow(size_ + max_n);
    return data_ + size_;
  }

  void commit(std::size_t n) noexcept { size_ += n; }

  /// Replace the `gap` committed bytes at `pos` with the `n <= gap` bytes at
  /// `src`, shifting the tail down: an encoder reserves room for a prefix
  /// whose size is known only after the body is written, then closes it.
  void replace_shrink(std::size_t pos, std::size_t gap, const void* src,
                      std::size_t n) noexcept {
    std::memcpy(data_ + pos, src, n);
    std::memmove(data_ + pos + n, data_ + pos + gap, size_ - pos - gap);
    size_ -= gap - n;
  }

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void clear() noexcept { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  [[nodiscard]] std::span<const std::byte> view() const noexcept {
    return {data_, size_};
  }

  /// Move the contents out (used by the transport to enqueue a flushed
  /// buffer without copying); this buffer is left empty with no storage.
  [[nodiscard]] byte_buffer release() noexcept { return std::move(*this); }

 private:
  void grow(std::size_t min_capacity) {
    std::size_t new_capacity = capacity_ == 0 ? 64 : capacity_ * 2;
    if (new_capacity < min_capacity) new_capacity = min_capacity;
    // Uninitialized storage: everything below size_ is copied over, and the
    // buffer never exposes bytes past size_.
    auto* fresh = new std::byte[new_capacity];
    if (size_ != 0) std::memcpy(fresh, data_, size_);
    delete[] data_;
    data_ = fresh;
    capacity_ = new_capacity;
  }

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

// ---------------------------------------------------------------------------
// Wire framing (socket transport).
// ---------------------------------------------------------------------------

/// Length-prefixed frame header used by stream transports: 4-byte
/// little-endian body length, 1-byte frame type, 3 reserved bytes.  The
/// fixed 8-byte size keeps the header a single read/write and leaves the
/// body 8-byte aligned when the header lands on an aligned boundary.
/// The header is encoded byte-by-byte below (never memcpy'd), so its
/// in-memory padding is irrelevant.  // tripoll-lint: not-wire
struct frame_header {
  static constexpr std::size_t kWireSize = 8;

  std::uint32_t body_len = 0;
  std::uint8_t type = 0;

  void encode(std::byte out[kWireSize]) const noexcept {
    out[0] = static_cast<std::byte>(body_len & 0xFF);
    out[1] = static_cast<std::byte>((body_len >> 8) & 0xFF);
    out[2] = static_cast<std::byte>((body_len >> 16) & 0xFF);
    out[3] = static_cast<std::byte>((body_len >> 24) & 0xFF);
    out[4] = static_cast<std::byte>(type);
    out[5] = out[6] = out[7] = std::byte{0};
  }

  [[nodiscard]] static frame_header decode(const std::byte in[kWireSize]) noexcept {
    frame_header h;
    h.body_len = static_cast<std::uint32_t>(in[0]) |
                 (static_cast<std::uint32_t>(in[1]) << 8) |
                 (static_cast<std::uint32_t>(in[2]) << 16) |
                 (static_cast<std::uint32_t>(in[3]) << 24);
    h.type = static_cast<std::uint8_t>(in[4]);
    return h;
  }
};

/// Little-endian fixed-width u64 helpers for control-frame bodies (control
/// frames use fixed offsets, not varints, so they can be parsed without a
/// reader).
inline void store_u64_le(std::byte* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
}

[[nodiscard]] inline std::uint64_t load_u64_le(const std::byte* in) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

/// Bounds-checked sequential reader over a span of bytes.  The reader does
/// not own the storage; callers must keep the underlying buffer alive.
class buffer_reader {
 public:
  buffer_reader() = default;

  explicit buffer_reader(std::span<const std::byte> bytes) noexcept : bytes_(bytes) {}

  buffer_reader(const void* data, std::size_t n) noexcept
      : bytes_(static_cast<const std::byte*>(data), n) {}

  /// Copy `n` bytes into `dst`, advancing the cursor.
  void read(void* dst, std::size_t n) {
    require(n);
    std::memcpy(dst, bytes_.data() + pos_, n);
    pos_ += n;
  }

  /// Return a view of the next `n` bytes and advance past them.
  [[nodiscard]] std::span<const std::byte> take(std::size_t n) {
    require(n);
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// Raw cursor + advance for decoders (varint) that scan ahead themselves;
  /// callers must stay within remaining() and advance what they consumed.
  [[nodiscard]] const std::byte* cursor() const noexcept { return bytes_.data() + pos_; }
  void advance(std::size_t n) noexcept { pos_ += n; }

 private:
  void require(std::size_t n) const {
    if (n > remaining()) {
      throw deserialize_error("buffer_reader: read past end of buffer");
    }
  }

  std::span<const std::byte> bytes_{};
  std::size_t pos_ = 0;
};

}  // namespace tripoll::serial
