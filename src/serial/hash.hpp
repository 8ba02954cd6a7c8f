// hash.hpp -- deterministic hashing shared by all ranks.
//
// The paper's `<+` vertex ordering breaks degree ties with a deterministic
// hash, and vertex ownership is a hash of the vertex id.  std::hash makes no
// cross-process determinism promises, so TriPoll uses an explicit splitmix64
// finalizer everywhere an ordering or ownership decision must agree across
// ranks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace tripoll::serial {

/// splitmix64 finalizer: a strong 64-bit mixer, deterministic everywhere.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// FNV-1a offset basis: the hash of the empty input.
inline constexpr std::uint64_t kFnv1aBasis = 0xCBF29CE484222325ULL;

/// FNV-1a over a byte range, continuing from `h` so a digest can fold
/// several ranges in sequence.  Snapshot section checksums, frozen content
/// ids and the handler-registry fingerprint all hash through this loop.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t n,
                                         std::uint64_t h = kFnv1aBasis) noexcept {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// FNV-1a for strings (FQDN metadata keys, counting-set keys).
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) noexcept {
  return fnv1a(s.data(), s.size());
}

/// boost-style combiner for composite keys.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t v) noexcept {
  return seed ^ (splitmix64(v) + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace tripoll::serial
