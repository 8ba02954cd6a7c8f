// buffer.hpp -- flat byte buffer, size-tiered buffer pool, bounds-checked reader.
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
// bounds check plus memcpy.  Storage blocks are recycled through
// buffer_pool so steady-state traffic performs no allocations at all.
#pragma once

#include <array>
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
/// Move-only: payloads are handed to the transport by move and recycled
/// through buffer_pool, never copied.
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

  /// Adopt another buffer's storage (recycled from a pool); existing
  /// contents are discarded.
  void adopt(byte_buffer other) noexcept { *this = std::move(other); }

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

/// Size-tiered freelist of byte_buffer storage blocks.  Tier i holds
/// buffers with capacity in [2^(kMinTierLog2+i), 2^(kMinTierLog2+i+1));
/// acquire() rounds the request up to a tier so recycled blocks are
/// interchangeable within their class.  Not thread-safe: each rank owns a
/// pool, and buffers flushed to another rank are recycled into the
/// *receiver's* pool after draining (pools redistribute storage across
/// ranks instead of returning it to the allocator).
class buffer_pool {
 public:
  static constexpr std::size_t kMinTierLog2 = 9;   // 512 B
  static constexpr std::size_t kMaxTierLog2 = 21;  // 2 MiB
  static constexpr std::size_t kTiers = kMaxTierLog2 - kMinTierLog2 + 1;

  explicit buffer_pool(std::size_t max_per_tier = 16) noexcept
      : max_per_tier_(max_per_tier < kShelfSlots ? max_per_tier : kShelfSlots) {}

  /// A buffer with capacity >= min_bytes: recycled when the tier has one
  /// big enough, freshly allocated otherwise.  Requests above the top tier
  /// class are honored at their exact size (and such blocks are simply not
  /// pooled on recycle).
  [[nodiscard]] byte_buffer acquire(std::size_t min_bytes) {
    const std::size_t tier = tier_for(min_bytes);
    auto& shelf = tiers_[tier];
    if (shelf.count > 0 && shelf.slots[shelf.count - 1].capacity() >= min_bytes) {
      ++hits_;
      byte_buffer out = std::move(shelf.slots[--shelf.count]);
      out.clear();
      return out;
    }
    ++misses_;
    const std::size_t class_bytes = std::size_t{1} << (kMinTierLog2 + tier);
    return byte_buffer(class_bytes < min_bytes ? min_bytes : class_bytes);
  }

  /// Return a storage block to its tier; oversize/undersize blocks and full
  /// tiers simply drop the block (freed by ~byte_buffer).
  void recycle(byte_buffer buf) noexcept {
    const std::size_t cap = buf.capacity();
    if (cap < (std::size_t{1} << kMinTierLog2) ||
        cap > (std::size_t{1} << (kMaxTierLog2 + 1))) {
      return;
    }
    // A block is reusable for every request of its tier or below; file it
    // under the largest tier whose class size it satisfies.
    std::size_t tier = 0;
    while (tier + 1 < kTiers && (std::size_t{1} << (kMinTierLog2 + tier + 1)) <= cap) {
      ++tier;
    }
    auto& shelf = tiers_[tier];
    if (shelf.count >= max_per_tier_ || shelf.count >= kShelfSlots) return;
    buf.clear();
    shelf.slots[shelf.count++] = std::move(buf);
    ++recycled_;
  }

  /// Hand `buf` a recycled storage block if one is on the shelf; leaves it
  /// untouched (empty, unallocated) when the pool has nothing -- the buffer
  /// then grows lazily on first append.
  void try_reuse(byte_buffer& buf, std::size_t want_bytes) {
    const std::size_t tier = tier_for(want_bytes);
    auto& shelf = tiers_[tier];
    if (shelf.count == 0 || shelf.slots[shelf.count - 1].capacity() < want_bytes) {
      // The caller's buffer will allocate lazily instead -- that deferred
      // allocation is this miss.
      ++misses_;
      return;
    }
    ++hits_;
    buf.adopt(std::move(shelf.slots[--shelf.count]));
    buf.clear();
  }

  // Pool telemetry (tests and the pool microbench).
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t recycled() const noexcept { return recycled_; }

  [[nodiscard]] std::size_t pooled_count() const noexcept {
    std::size_t n = 0;
    for (const auto& shelf : tiers_) n += shelf.count;
    return n;
  }

 private:
  static constexpr std::size_t kShelfSlots = 64;

  struct shelf_t {
    std::array<byte_buffer, kShelfSlots> slots;
    std::size_t count = 0;
  };

  [[nodiscard]] static std::size_t tier_for(std::size_t bytes) noexcept {
    std::size_t tier = 0;
    while (tier < kTiers - 1 && (std::size_t{1} << (kMinTierLog2 + tier)) < bytes) {
      ++tier;
    }
    return tier;
  }

  std::array<shelf_t, kTiers> tiers_{};
  std::size_t max_per_tier_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t recycled_ = 0;
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
