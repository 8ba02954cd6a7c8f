// Property tests for the adjacency-intersection kernels: all must produce
// identical match sets on arbitrary sorted inputs, including the galloping
// and adaptive kernels backing the survey's wedge-closing step.  Also the
// two id tables beside them: probe_table and dense_index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "core/dense_index.hpp"
#include "core/intersect.hpp"

namespace core = tripoll::core;

namespace {

constexpr auto kIdentity = [](std::uint64_t x) { return x; };

std::vector<std::uint64_t> sorted_unique(std::mt19937_64& rng, std::size_t n,
                                         std::uint64_t universe) {
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng() % universe;
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

template <typename Fn>
std::set<std::uint64_t> collect(Fn&& intersect, const std::vector<std::uint64_t>& a,
                                const std::vector<std::uint64_t>& b) {
  std::set<std::uint64_t> out;
  intersect(a.begin(), a.end(), b.begin(), b.end(), kIdentity, kIdentity,
            [&](std::uint64_t x, std::uint64_t y) {
              EXPECT_EQ(x, y);
              EXPECT_TRUE(out.insert(x).second) << "duplicate match " << x;
            });
  return out;
}

std::set<std::uint64_t> reference(const std::vector<std::uint64_t>& a,
                                  const std::vector<std::uint64_t>& b) {
  std::set<std::uint64_t> sa(a.begin(), a.end());
  std::set<std::uint64_t> out;
  for (const auto x : b) {
    if (sa.contains(x)) out.insert(x);
  }
  return out;
}

}  // namespace

TEST(Intersect, EmptyInputs) {
  const std::vector<std::uint64_t> empty, some{1, 2, 3};
  EXPECT_TRUE(collect([](auto... args) { core::merge_path_intersect(args...); }, empty,
                      some)
                  .empty());
  EXPECT_TRUE(collect([](auto... args) { core::binary_search_intersect(args...); },
                      some, empty)
                  .empty());
  EXPECT_TRUE(
      collect([](auto... args) { core::hash_intersect(args...); }, empty, empty).empty());
}

TEST(Intersect, DisjointAndIdentical) {
  const std::vector<std::uint64_t> a{1, 3, 5}, b{2, 4, 6};
  EXPECT_TRUE(collect([](auto... args) { core::merge_path_intersect(args...); }, a, b)
                  .empty());
  const auto same =
      collect([](auto... args) { core::merge_path_intersect(args...); }, a, a);
  EXPECT_EQ(same, (std::set<std::uint64_t>{1, 3, 5}));
}

class IntersectProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntersectProperty, AllKernelsAgreeWithReference) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 20; ++round) {
    const auto a = sorted_unique(rng, 1 + rng() % 200, 1 + rng() % 500);
    const auto b = sorted_unique(rng, 1 + rng() % 200, 1 + rng() % 500);
    const auto want = reference(a, b);
    EXPECT_EQ(collect([](auto... args) { core::merge_path_intersect(args...); }, a, b),
              want);
    EXPECT_EQ(
        collect([](auto... args) { core::binary_search_intersect(args...); }, a, b),
        want);
    EXPECT_EQ(collect([](auto... args) { core::hash_intersect(args...); }, a, b), want);
    EXPECT_EQ(collect([](auto... args) { core::gallop_intersect(args...); }, a, b), want);
    EXPECT_EQ(collect([](auto... args) { core::adaptive_intersect(args...); }, a, b),
              want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectProperty, ::testing::Range(0, 10));

TEST(Intersect, GallopEmptyAndSkewedShapes) {
  const std::vector<std::uint64_t> empty;
  const std::vector<std::uint64_t> some{1, 2, 3};
  EXPECT_TRUE(
      collect([](auto... args) { core::gallop_intersect(args...); }, empty, some).empty());
  EXPECT_TRUE(
      collect([](auto... args) { core::adaptive_intersect(args...); }, some, empty)
          .empty());

  // Shapes straddling the gallop_ratio_threshold in both directions: every
  // kernel must agree on strongly skewed inputs, where adaptive switches
  // strategy.
  std::mt19937_64 rng(7);
  for (const auto& [na, nb] : {std::pair<std::size_t, std::size_t>{5, 3000},
                              {3000, 5},
                              {1, 5000},
                              {64, 64},
                              {33, 511}}) {
    const auto a = sorted_unique(rng, na, 4000);
    const auto b = sorted_unique(rng, nb, 4000);
    const auto want = reference(a, b);
    EXPECT_EQ(collect([](auto... args) { core::gallop_intersect(args...); }, a, b), want);
    EXPECT_EQ(collect([](auto... args) { core::adaptive_intersect(args...); }, a, b),
              want);
  }
}

TEST(Intersect, AdaptivePreservesArgumentOrderWhenSwapped) {
  // na >> nb drives adaptive through the swapped-gallop branch; on_match
  // must still observe (a_elem, b_elem) in that order.
  struct lhs {
    std::uint64_t id;
    char tag;
  };
  struct rhs {
    std::uint64_t id;
    int weight;
  };
  std::vector<lhs> a;
  for (std::uint64_t i = 0; i < 200; ++i) a.push_back(lhs{i, 'a'});
  const std::vector<rhs> b{{50, 500}, {199, 1990}};
  std::vector<std::pair<char, int>> matches;
  core::adaptive_intersect(
      a.begin(), a.end(), b.begin(), b.end(), [](const lhs& x) { return x.id; },
      [](const rhs& y) { return y.id; },
      [&](const lhs& x, const rhs& y) { matches.emplace_back(x.tag, y.weight); });
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0], (std::pair<char, int>{'a', 500}));
  EXPECT_EQ(matches[1], (std::pair<char, int>{'a', 1990}));
}

TEST(Intersect, HeterogeneousElementTypesViaKeys) {
  // The survey intersects candidate structs against adjacency entries; the
  // kernels must work through key extractors on different element types.
  struct lhs {
    std::uint64_t id;
    int payload;
  };
  struct rhs {
    double weight;
    std::uint64_t id;
  };
  const std::vector<lhs> a{{1, 10}, {4, 40}, {9, 90}};
  const std::vector<rhs> b{{0.5, 2}, {0.25, 4}, {0.125, 8}, {0.1, 9}};
  std::vector<std::pair<int, double>> matches;
  core::merge_path_intersect(
      a.begin(), a.end(), b.begin(), b.end(), [](const lhs& x) { return x.id; },
      [](const rhs& y) { return y.id; },
      [&](const lhs& x, const rhs& y) { matches.emplace_back(x.payload, y.weight); });
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].first, 40);
  EXPECT_EQ(matches[1].first, 90);
}

TEST(Intersect, KernelsExtractEachKeyOnceAsTheyAdvance) {
  // Counting key functors: merge-path keeps each side's current key and
  // extracts a new one only when that side advances, so it does at most
  // |A| + |B| extractions; the match sets stay those of the reference.
  std::mt19937_64 rng(11);
  for (int round = 0; round < 50; ++round) {
    const auto a = sorted_unique(rng, 1 + rng() % 300, 1 + rng() % 600);
    const auto b = sorted_unique(rng, 1 + rng() % 300, 1 + rng() % 600);
    std::size_t extractions = 0;
    const auto counted = [&extractions](std::uint64_t x) {
      ++extractions;
      return x;
    };
    std::set<std::uint64_t> merged;
    core::merge_path_intersect(a.begin(), a.end(), b.begin(), b.end(), counted, counted,
                               [&](std::uint64_t x, std::uint64_t) { merged.insert(x); });
    EXPECT_LE(extractions, a.size() + b.size());
    EXPECT_EQ(merged, reference(a, b));

    std::set<std::uint64_t> galloped;
    core::gallop_intersect(a.begin(), a.end(), b.begin(), b.end(), counted, counted,
                           [&](std::uint64_t x, std::uint64_t) { galloped.insert(x); });
    EXPECT_EQ(galloped, reference(a, b));
  }
}

TEST(Intersect, ProbeTableFindsEveryEntryAndOnlyMatches) {
  // The pulled-adjacency index: every indexed id is found at its position,
  // absent ids and ids whose second field differs are not, and a rebuild
  // over a shorter list forgets the longer one.
  struct entry {
    std::uint64_t id;
    std::uint64_t rank;
  };
  std::mt19937_64 rng(5);
  core::probe_table table;
  EXPECT_EQ(table.find(3, [](std::size_t) { return true; }), core::probe_table::npos);
  for (const std::size_t n : {0u, 1u, 2u, 3u, 17u, 1000u, 5u}) {
    std::vector<entry> entries;
    for (const auto id : sorted_unique(rng, n, 1u << 20)) entries.push_back({id, id % 7});
    table.build(entries.size(), [&](std::size_t k) { return entries[k].id; });
    const auto lookup = [&](std::uint64_t id, std::uint64_t rank) {
      return table.find(id, [&](std::size_t k) {
        return entries[k].id == id && entries[k].rank == rank;
      });
    };
    for (std::size_t k = 0; k < entries.size(); ++k) {
      EXPECT_EQ(lookup(entries[k].id, entries[k].rank), k);
      EXPECT_EQ(lookup(entries[k].id, entries[k].rank + 1), core::probe_table::npos);
    }
    EXPECT_EQ(lookup(1u << 21, 0), core::probe_table::npos);
  }
}

// --- dense_index ------------------------------------------------------------------

namespace {

/// Number `ids` (repeats allowed) and check every answer against first-seen
/// order: add() and find() agree, and `ids` holds each distinct id once.
void expect_first_seen(core::dense_index& index, const std::vector<std::uint64_t>& ids) {
  std::vector<std::uint64_t> seen;
  for (const std::uint64_t v : ids) {
    const auto it = std::find(seen.begin(), seen.end(), v);
    const auto want = static_cast<std::uint32_t>(it - seen.begin());
    if (it == seen.end()) seen.push_back(v);
    EXPECT_EQ(index.add(v), want) << "id " << v;
  }
  EXPECT_EQ(index.ids, seen);
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_EQ(index.find(seen[k]), static_cast<std::uint32_t>(k)) << "id " << seen[k];
  }
}

}  // namespace

TEST(DenseIndex, NumbersFirstSeenAcrossGrowth) {
  // 1000 distinct ids grow the table from 64 slots to 2048; each id comes
  // back several times, before and after the growths.
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ids.push_back(rng());
    ids.push_back(ids[rng() % ids.size()]);
  }
  core::dense_index index;
  expect_first_seen(index, ids);
  EXPECT_EQ(index.ids.size(), 1000u);
}

TEST(DenseIndex, FindOfAnAbsentIdIsNpos) {
  core::dense_index index;
  EXPECT_EQ(index.find(0), core::dense_index::npos);
  EXPECT_EQ(index.find(7), core::dense_index::npos);
  for (std::uint64_t v = 0; v < 200; v += 2) index.add(v);
  for (std::uint64_t v = 1; v < 200; v += 2) {
    EXPECT_EQ(index.find(v), core::dense_index::npos) << "id " << v;
  }
  EXPECT_EQ(index.find(~std::uint64_t{0}), core::dense_index::npos);
  EXPECT_EQ(index.ids.size(), 100u);  // find() adds nothing
}

TEST(DenseIndex, IdsSpreadOverU64NumberAndFind) {
  // k << 40 leaves the low 40 bits zero; ~k sets all the high bits.  Both
  // families, interleaved and repeated, number in first-seen order.
  std::vector<std::uint64_t> ids;
  for (std::uint64_t k = 0; k < 300; ++k) {
    ids.push_back(k << 40);
    ids.push_back(~k);
    if (k % 3 == 0) ids.push_back(k / 2 << 40);
  }
  core::dense_index index;
  expect_first_seen(index, ids);
  EXPECT_EQ(index.ids.size(), 600u);
  EXPECT_EQ(index.find(std::uint64_t{300} << 40), core::dense_index::npos);
  EXPECT_EQ(index.find(~std::uint64_t{300}), core::dense_index::npos);
}

TEST(DenseIndex, SortReturnsAscendingPositions) {
  std::mt19937_64 rng(12);
  core::dense_index index;
  std::vector<std::uint64_t> first_seen;
  for (int k = 0; k < 500; ++k) {
    const std::uint64_t v = rng() % 2000;
    if (index.add(v) == first_seen.size()) first_seen.push_back(v);
  }
  const std::vector<std::uint32_t> pos = index.sort();
  ASSERT_EQ(pos.size(), first_seen.size());
  EXPECT_TRUE(std::is_sorted(index.ids.begin(), index.ids.end()));
  EXPECT_EQ(std::adjacent_find(index.ids.begin(), index.ids.end()), index.ids.end());
  for (std::size_t k = 0; k < first_seen.size(); ++k) {
    EXPECT_EQ(index.ids[pos[k]], first_seen[k]) << "first-seen position " << k;
  }
}
