// intersect.hpp -- adjacency-list intersection kernels.
//
// The wedge-closing step intersects a pushed adjacency suffix with the
// target's adjacency list.  The paper uses merge-path intersection over
// degree-sorted lists (Sec. 4.3); binary-search and hashing variants are the
// two other canonical strategies in the distributed triangle-counting
// literature (Sec. 2) and are implemented for the baselines and for the
// `bench_micro_intersection` comparison.  Every wedge batch and pulled
// adjacency of a survey closes through `adaptive_intersect`.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <unordered_map>
#include <utility>

namespace tripoll::core {

/// Merge-path intersection of two ranges sorted ascending under keys
/// extracted by `key_a`/`key_b` (comparable with <, ==).  Invokes
/// `on_match(a_elem, b_elem)` for every common key.
template <typename ItA, typename ItB, typename KeyA, typename KeyB, typename OnMatch>
void merge_path_intersect(ItA a, ItA a_end, ItB b, ItB b_end, KeyA key_a, KeyB key_b,
                          OnMatch&& on_match) {
  while (a != a_end && b != b_end) {
    const auto ka = key_a(*a);
    const auto kb = key_b(*b);
    if (ka < kb) {
      ++a;
    } else if (kb < ka) {
      ++b;
    } else {
      on_match(*a, *b);
      ++a;
      ++b;
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
  while (a != a_end && b != b_end) {
    const auto ka = key_a(*a);
    if (key_b(*b) < ka) {
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
    }
    const auto kb = key_b(*b);
    if (ka < kb) {
      ++a;
    } else {
      on_match(*a, *b);
      ++a;
      ++b;
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

}  // namespace tripoll::core
