// intersect.hpp -- adjacency-list intersection kernels.
//
// The wedge-closing step intersects a pushed adjacency suffix with the
// target's adjacency list.  The paper uses merge-path intersection over
// degree-sorted lists (Sec. 4.3); binary-search and hashing variants are the
// two other canonical strategies in the distributed triangle-counting
// literature (Sec. 2) and are implemented for the baselines and for the
// `bench_micro_intersection` comparison.  Every wedge batch of a survey
// closes through `adaptive_intersect`; every pulled adjacency closes through
// one `probe_table` built over it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace tripoll::core {

/// Merge-path intersection of two ranges sorted ascending under keys
/// extracted by `key_a`/`key_b` (comparable with <, ==).  Invokes
/// `on_match(a_elem, b_elem)` for every common key.  Each side's current key
/// is kept and re-extracted only when that side advances, so the kernel
/// extracts at most |A| + |B| keys.
template <typename ItA, typename ItB, typename KeyA, typename KeyB, typename OnMatch>
void merge_path_intersect(ItA a, ItA a_end, ItB b, ItB b_end, KeyA key_a, KeyB key_b,
                          OnMatch&& on_match) {
  if (a == a_end || b == b_end) return;
  auto ka = key_a(*a);
  auto kb = key_b(*b);
  while (true) {
    if (ka < kb) {
      if (++a == a_end) return;
      ka = key_a(*a);
    } else if (kb < ka) {
      if (++b == b_end) return;
      kb = key_b(*b);
    } else {
      on_match(*a, *b);
      if (++a == a_end || ++b == b_end) return;
      ka = key_a(*a);
      kb = key_b(*b);
    }
  }
}

/// Binary-search intersection: for each element of [a, a_end), search the
/// sorted range [b, b_end).  Preferable when |A| << |B|.
template <typename ItA, typename ItB, typename KeyA, typename KeyB, typename OnMatch>
void binary_search_intersect(ItA a, ItA a_end, ItB b, ItB b_end, KeyA key_a, KeyB key_b,
                             OnMatch&& on_match) {
  for (; a != a_end; ++a) {
    const auto ka = key_a(*a);
    auto it = std::lower_bound(b, b_end, ka, [&](const auto& elem, const auto& k) {
      return key_b(elem) < k;
    });
    if (it != b_end && key_b(*it) == ka) on_match(*a, *it);
  }
}

/// Galloping (exponential-search) intersection: walks the smaller range
/// [a, a_end) and locates each key in [b, b_end) by doubling steps from the
/// current position followed by a binary search over the final window.
/// Cost is O(|A| * log(gap)) probes, so it dominates merge-path when
/// |B| >> |A| -- the skewed case of the survey's wedge-closing step, where
/// a short pushed adjacency suffix meets a hub vertex's long list.
/// Requires random-access iterators for B.
template <typename ItA, typename ItB, typename KeyA, typename KeyB, typename OnMatch>
void gallop_intersect(ItA a, ItA a_end, ItB b, ItB b_end, KeyA key_a, KeyB key_b,
                      OnMatch&& on_match) {
  if (a == a_end || b == b_end) return;
  auto ka = key_a(*a);
  auto kb = key_b(*b);
  while (true) {
    if (kb < ka) {
      // Gallop: after the loop, every element in [b, b+lo) is < ka and
      // b[hi] (if it exists) is >= ka; binary search the window between.
      const auto n = static_cast<std::size_t>(std::distance(b, b_end));
      std::size_t lo = 1;
      std::size_t hi = 1;
      while (hi < n && key_b(b[static_cast<std::ptrdiff_t>(hi)]) < ka) {
        lo = hi + 1;
        hi <<= 1;
      }
      if (hi > n) hi = n;
      b = std::lower_bound(b + static_cast<std::ptrdiff_t>(lo),
                           b + static_cast<std::ptrdiff_t>(hi), ka,
                           [&](const auto& elem, const auto& k) { return key_b(elem) < k; });
      if (b == b_end) return;
      kb = key_b(*b);
    }
    if (ka < kb) {
      if (++a == a_end) return;
      ka = key_a(*a);
    } else {
      on_match(*a, *b);
      if (++a == a_end || ++b == b_end) return;
      ka = key_a(*a);
      kb = key_b(*b);
    }
  }
}

/// Size-ratio heuristic threshold above which galloping beats a linear
/// merge.  Crossover measured by bench_micro_intersection: merge-path does
/// |A|+|B| key comparisons, galloping ~|A|*log2(|B|/|A|) probes, so the
/// win kicks in once the ranges differ by about an order of magnitude.
inline constexpr std::size_t gallop_ratio_threshold = 16;

namespace detail {

#if defined(__GNUC__) || defined(__clang__)
#define TRIPOLL_NOINLINE __attribute__((noinline))
#else
#define TRIPOLL_NOINLINE
#endif

// Outlined gallop entry for adaptive_intersect.  Inlining the galloping
// loops next to the merge loop measurably degrades the merge path's codegen
// (~1.5x on balanced inputs with gcc 12), so the cold skewed branch pays
// one call instead.
template <typename ItA, typename ItB, typename KeyA, typename KeyB, typename OnMatch>
TRIPOLL_NOINLINE void gallop_outlined(ItA a, ItA a_end, ItB b, ItB b_end, KeyA key_a,
                                      KeyB key_b, OnMatch&& on_match) {
  gallop_intersect(a, a_end, b, b_end, key_a, key_b, std::forward<OnMatch>(on_match));
}

#undef TRIPOLL_NOINLINE

}  // namespace detail

/// Adaptive intersection used by the survey engine's wedge-closing step:
/// merge-path for similar sizes, galloping from the smaller side when the
/// sizes are skewed by >= gallop_ratio_threshold.  Match callback argument
/// order (a_elem, b_elem) is preserved in both regimes.
template <typename ItA, typename ItB, typename KeyA, typename KeyB, typename OnMatch>
void adaptive_intersect(ItA a, ItA a_end, ItB b, ItB b_end, KeyA key_a, KeyB key_b,
                        OnMatch&& on_match) {
  const auto na = static_cast<std::size_t>(std::distance(a, a_end));
  const auto nb = static_cast<std::size_t>(std::distance(b, b_end));
  if (na == 0 || nb == 0) return;
  if (nb / na >= gallop_ratio_threshold) {
    detail::gallop_outlined(a, a_end, b, b_end, key_a, key_b,
                            std::forward<OnMatch>(on_match));
  } else if (na / nb >= gallop_ratio_threshold) {
    detail::gallop_outlined(b, b_end, a, a_end, key_b, key_a,
                            [&](const auto& eb, const auto& ea) { on_match(ea, eb); });
  } else {
    merge_path_intersect(a, a_end, b, b_end, key_a, key_b,
                         std::forward<OnMatch>(on_match));
  }
}

/// Hash intersection: builds a hash set over the keys of [b, b_end) and
/// probes with each element of [a, a_end).  Keys must be hashable.
template <typename ItA, typename ItB, typename KeyA, typename KeyB, typename OnMatch>
void hash_intersect(ItA a, ItA a_end, ItB b, ItB b_end, KeyA key_a, KeyB key_b,
                    OnMatch&& on_match) {
  using key_type = std::decay_t<decltype(key_b(*b))>;
  std::unordered_map<key_type, ItB> index;
  index.reserve(static_cast<std::size_t>(std::distance(b, b_end)));
  for (auto it = b; it != b_end; ++it) index.emplace(key_b(*it), it);
  for (; a != a_end; ++a) {
    auto hit = index.find(key_a(*a));
    if (hit != index.end()) on_match(*a, *hit->second);
  }
}

/// Open-addressing index over a list of n entries: the survey builds one
/// per pulled adjacency Adjm+(q) and probes it with every entry of each
/// local source's suffix, so the pulled list is walked once, not once per
/// source.  Slots hold entry index + 1 (0 = empty) under a multiplicative
/// hash of the entry's id.  The table keeps at least 2n slots (load <= 1/2),
/// so every probe ends at an empty slot.  build() reuses the storage.
class probe_table {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Index entries [0, n); entry k is filed under id_of(k).
  template <typename IdOf>
  void build(std::size_t n, IdOf id_of) {
    if (n >= std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("probe_table: too many entries");
    }
    unsigned bits = 1;
    while ((std::size_t{1} << bits) < 2 * n) ++bits;
    shift_ = 64 - bits;
    mask_ = (std::size_t{1} << bits) - 1;
    slots_.assign(mask_ + 1, 0);
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t s = home(id_of(k));
      while (slots_[s] != 0) s = (s + 1) & mask_;
      slots_[s] = static_cast<std::uint32_t>(k + 1);
    }
  }

  /// The first entry filed under `id` for which `match(k)` holds, or npos.
  /// `match` must check the id too: other ids share probe sequences.
  template <typename Match>
  [[nodiscard]] std::size_t find(std::uint64_t id, Match match) const {
    for (std::size_t s = home(id);; s = (s + 1) & mask_) {
      const std::uint32_t v = slots_[s];
      if (v == 0) return npos;
      if (match(std::size_t{v} - 1)) return std::size_t{v} - 1;
    }
  }

 private:
  [[nodiscard]] std::size_t home(std::uint64_t id) const noexcept {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(2, 0);
  std::size_t mask_ = 1;
  unsigned shift_ = 63;
};

}  // namespace tripoll::core
