// Tests for DODGr construction: orientation, ordering, metadata placement,
// dedup/merge policies, census numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/serial_tc.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "gen/presets.hpp"
#include "graph/frozen.hpp"
#include "graph/types.hpp"
#include "serial/hash.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;

using plain_graph = tg::dodgr<tg::none, tg::none>;

TEST(OrderKey, TotalOrderProperties) {
  // degree dominates, then hash, then id; the relation is a strict total
  // order on any sample set.
  std::vector<std::pair<tg::vertex_id, std::uint64_t>> sample;
  for (tg::vertex_id v = 0; v < 50; ++v) sample.emplace_back(v, v % 7);
  for (const auto& [u, du] : sample) {
    EXPECT_FALSE(tg::degree_less(u, du, u, du));  // irreflexive
    for (const auto& [v, dv] : sample) {
      if (u == v) continue;
      // antisymmetric and total
      EXPECT_NE(tg::degree_less(u, du, v, dv), tg::degree_less(v, dv, u, du));
    }
  }
}

TEST(OrderKey, DegreeDominates) {
  EXPECT_TRUE(tg::degree_less(100, 1, 5, 2));
  EXPECT_FALSE(tg::degree_less(5, 2, 100, 1));
}

namespace {

/// Build a plain graph from an explicit edge list contributed by rank 0.
void build_plain(tc::communicator& c, plain_graph& g,
                 const std::vector<std::pair<tg::vertex_id, tg::vertex_id>>& edges) {
  tg::graph_builder<tg::none, tg::none> builder(c);
  if (c.rank0()) {
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
  }
  builder.build_into(g);
}

}  // namespace

TEST(Builder, TriangleCensus) {
  tc::runtime::run(3, [](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, {{0, 1}, {1, 2}, {0, 2}});
    const auto census = g.census();
    EXPECT_EQ(census.num_vertices, 3u);
    EXPECT_EQ(census.num_directed_edges, 6u);  // paper convention: 2x undirected
    EXPECT_EQ(census.max_degree, 2u);
    EXPECT_EQ(census.max_out_degree, 2u);
    EXPECT_EQ(census.wedge_checks, 1u);  // exactly one wedge at the pivot
  });
}

TEST(Builder, EveryUndirectedEdgeOrientedExactlyOnce) {
  tc::runtime::run(4, [](tc::communicator& c) {
    plain_graph g(c);
    // A 10-vertex graph with mixed degrees.
    std::vector<std::pair<tg::vertex_id, tg::vertex_id>> edges;
    for (tg::vertex_id v = 1; v < 10; ++v) edges.emplace_back(0, v);  // star
    edges.insert(edges.end(), {{1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}});
    build_plain(c, g, edges);

    std::uint64_t local_out_edges = 0;
    g.for_all_local([&](const tg::vertex_id&, const plain_graph::record_type& rec) {
      local_out_edges += rec.adj.size();
    });
    EXPECT_EQ(c.all_reduce_sum(local_out_edges), edges.size());
    EXPECT_EQ(g.census().num_directed_edges, 2 * edges.size());
  });
}

TEST(Builder, AdjacencySortedByOrderKey) {
  tc::runtime::run(3, [](tc::communicator& c) {
    plain_graph g(c);
    std::vector<std::pair<tg::vertex_id, tg::vertex_id>> edges;
    for (tg::vertex_id u = 0; u < 20; ++u) {
      for (tg::vertex_id v = u + 1; v < 20; v += (u % 3) + 1) edges.emplace_back(u, v);
    }
    build_plain(c, g, edges);
    g.for_all_local([&](const tg::vertex_id&, const plain_graph::record_type& rec) {
      for (std::size_t i = 1; i < rec.adj.size(); ++i) {
        EXPECT_TRUE(rec.adj[i - 1].key() < rec.adj[i].key());
      }
    });
  });
}

TEST(Builder, OrientationPointsToHigherOrder) {
  tc::runtime::run(3, [](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
    g.for_all_local([&](const tg::vertex_id& v, const plain_graph::record_type& rec) {
      for (const auto& e : rec.adj) {
        EXPECT_TRUE(tg::order_less(v, rec.order_rank, e.target, e.target_rank))
            << "edge " << v << "->" << e.target << " violates <+";
      }
    });
  });
}

TEST(Builder, SelfLoopsAndDuplicatesRemoved) {
  tc::runtime::run(2, [](tc::communicator& c) {
    plain_graph g(c);
    tg::graph_builder<tg::none, tg::none> builder(c);
    if (c.rank0()) {
      builder.add_edge(1, 1);  // self loop
      builder.add_edge(1, 2);
      builder.add_edge(2, 1);  // reverse duplicate
      builder.add_edge(1, 2);  // exact duplicate
    }
    // Concurrent duplicate contribution from the other rank.
    if (c.rank() == 1 % c.size()) builder.add_edge(2, 1);
    builder.build_into(g);
    const auto census = g.census();
    EXPECT_EQ(census.num_vertices, 2u);
    EXPECT_EQ(census.num_directed_edges, 2u);  // single undirected edge
  });
}

TEST(Builder, TargetDegreeFieldsMatchActualDegrees) {
  tc::runtime::run(4, [](tc::communicator& c) {
    plain_graph g(c);
    std::vector<std::pair<tg::vertex_id, tg::vertex_id>> edges = {
        {0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}, {3, 4}, {4, 0}};
    build_plain(c, g, edges);

    // Gather true degrees and out-degrees on every rank.
    std::vector<std::pair<tg::vertex_id, std::pair<std::uint64_t, std::uint64_t>>> local;
    g.for_all_local([&](const tg::vertex_id& v, const plain_graph::record_type& rec) {
      local.push_back({v, {rec.degree, rec.out_degree()}});
    });
    auto per_rank = c.all_gather(local);
    std::map<tg::vertex_id, std::pair<std::uint64_t, std::uint64_t>> truth;
    for (auto& vec : per_rank) {
      for (auto& [v, d] : vec) truth[v] = d;
    }

    g.for_all_local([&](const tg::vertex_id&, const plain_graph::record_type& rec) {
      for (const auto& e : rec.adj) {
        EXPECT_EQ(e.target_rank, truth.at(e.target).first);
        EXPECT_EQ(e.target_out_degree, truth.at(e.target).second);
      }
    });
  });
}

TEST(Builder, KeepLeastMergesToChronologicallyFirst) {
  tc::runtime::run(3, [](tc::communicator& c) {
    tg::dodgr<tg::none, std::uint64_t> g(c);
    tg::graph_builder<tg::none, std::uint64_t, tg::merge::keep_least> builder(c);
    // The same contact reported with different timestamps from many ranks.
    builder.add_edge(5, 9, 1000 + static_cast<std::uint64_t>(c.rank()));
    if (c.rank0()) builder.add_edge(9, 5, 17);  // chronological first, reversed
    builder.build_into(g);

    std::uint64_t local_min = UINT64_MAX;
    g.for_all_local([&](const tg::vertex_id&, const auto& rec) {
      for (const auto& e : rec.adj) local_min = std::min(local_min, e.edge_meta);
    });
    EXPECT_EQ(c.all_reduce_min(local_min), 17u);
    EXPECT_EQ(g.census().num_directed_edges, 2u);
  });
}

TEST(Builder, KeepGreatestPolicy) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<tg::none, std::uint64_t> g(c);
    tg::graph_builder<tg::none, std::uint64_t, tg::merge::keep_greatest> builder(c);
    builder.add_edge(1, 2, static_cast<std::uint64_t>(10 + c.rank()));
    builder.build_into(g);
    std::uint64_t local_max = 0;
    g.for_all_local([&](const tg::vertex_id&, const auto& rec) {
      for (const auto& e : rec.adj) local_max = std::max(local_max, e.edge_meta);
    });
    EXPECT_EQ(c.all_reduce_max(local_max), 11u);
  });
}

TEST(Builder, KeepExistingKeepsFirstArrival) {
  tc::runtime::run(1, [](tc::communicator& c) {
    tg::dodgr<tg::none, std::uint64_t> g(c);
    tg::graph_builder<tg::none, std::uint64_t, tg::merge::keep_existing> builder(c);
    builder.add_edge(1, 2, 9);
    builder.add_edge(2, 1, 3);
    builder.add_edge(1, 2, 5);
    builder.build_into(g);
    std::uint64_t edges = 0;
    g.for_all_local([&](const tg::vertex_id&, const auto& rec) {
      for (const auto& e : rec.adj) {
        EXPECT_EQ(e.edge_meta, 9u);
        ++edges;
      }
    });
    EXPECT_EQ(edges, 1u);
  });
}

// Ids that agree in their low bits, or sit at the top of the u64 range,
// build the same graph as small ids.
TEST(Builder, IdsSpreadOverU64BuildTheSameGraph) {
  tripoll::gen::erdos_renyi_generator gen(120, 900, 5);
  std::vector<tg::edge> edges;
  for (std::uint64_t k = 0; k < gen.num_edges(); ++k) edges.push_back(gen.edge_at(k));
  const std::uint64_t expected = tripoll::baselines::serial_triangle_count(edges);
  ASSERT_GT(expected, 0u);

  const auto census_and_count = [&](auto id_of) {
    std::pair<tg::graph_census, std::uint64_t> out;
    tc::runtime::run(3, [&](tc::communicator& c) {
      plain_graph g(c);
      tg::graph_builder<tg::none, tg::none> builder(c);
      for (std::size_t i = static_cast<std::size_t>(c.rank()); i < edges.size();
           i += static_cast<std::size_t>(c.size())) {
        builder.add_edge(id_of(edges[i].u), id_of(edges[i].v));
      }
      builder.build_into(g);
      const auto census = g.census();
      auto fz = tg::freeze(g);
      tripoll::callbacks::count_context ctx;
      tripoll::triangle_survey(fz, tripoll::callbacks::count_callback{}, ctx);
      const std::uint64_t triangles = ctx.global_count(c);
      if (c.rank0()) out = {census, triangles};
    });
    return out;
  };
  const auto [small, small_count] = census_and_count([](tg::vertex_id k) { return k; });
  const auto [high, high_count] = census_and_count([](tg::vertex_id k) { return k << 40; });
  const auto [top, top_count] = census_and_count([](tg::vertex_id k) { return ~k; });  // max - k
  EXPECT_EQ(small_count, expected);
  EXPECT_EQ(high_count, expected);
  EXPECT_EQ(top_count, expected);
  // max_out_degree and wedge_checks are left out: <+ breaks degree ties by
  // a hash of the id, so relabelling re-orients some edges.
  for (const tg::graph_census& other : {high, top}) {
    EXPECT_EQ(other.num_vertices, small.num_vertices);
    EXPECT_EQ(other.num_directed_edges, small.num_directed_edges);
    EXPECT_EQ(other.max_degree, small.max_degree);
  }
}

TEST(Builder, VertexMetadataColocatedOnAdjacency) {
  tc::runtime::run(3, [](tc::communicator& c) {
    tg::dodgr<std::string, tg::none> g(c);
    tg::graph_builder<std::string, tg::none> builder(c);
    if (c.rank0()) {
      builder.add_edge(0, 1);
      builder.add_edge(1, 2);
      builder.add_edge(0, 2);
      builder.add_vertex_meta(0, "zero.example");
      builder.add_vertex_meta(1, "one.example");
      builder.add_vertex_meta(2, "two.example");
    }
    builder.build_into(g);

    const std::vector<std::string> names{"zero.example", "one.example", "two.example"};
    g.for_all_local([&](const tg::vertex_id& v, const auto& rec) {
      EXPECT_EQ(rec.meta, names[v]);  // own metadata
      for (const auto& e : rec.adj) {
        EXPECT_EQ(e.target_meta, names[e.target]);  // Adjm+ carries target meta
      }
    });
  });
}

TEST(Builder, SelfLoopCounterTracksDrops) {
  tc::runtime::run(2, [](tc::communicator& c) {
    plain_graph g(c);
    tg::graph_builder<tg::none, tg::none> builder(c);
    builder.add_edge(3, 3);
    builder.add_edge(4, 4);
    builder.add_edge(3, 4);
    EXPECT_EQ(builder.local_dropped_self_loops(), 2u);
    builder.build_into(g);
    EXPECT_EQ(g.census().num_directed_edges, 2u);
  });
}

TEST(Builder, IsolatedVertexFromMetadataOnly) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<std::string, tg::none> g(c);
    tg::graph_builder<std::string, tg::none> builder(c);
    if (c.rank0()) {
      builder.add_edge(0, 1);
      builder.add_vertex_meta(7, "lonely.example");
    }
    builder.build_into(g);
    const auto census = g.census();
    EXPECT_EQ(census.num_vertices, 3u);  // 0, 1 and the isolated 7
    EXPECT_EQ(census.num_directed_edges, 2u);
  });
}

TEST(Builder, RefusesReuseAfterBuild) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<std::string, tg::none> g(c);
    tg::graph_builder<std::string, tg::none> builder(c);
    if (c.rank0()) builder.add_edge(0, 1);
    builder.build_into(g);
    EXPECT_THROW(builder.add_edge(1, 2), std::logic_error);
    EXPECT_THROW(builder.add_vertex_meta(2, "late.example"), std::logic_error);
    tg::dodgr<std::string, tg::none> again(c);
    EXPECT_THROW(builder.build_into(again), std::logic_error);
    const auto census = g.census();  // the first build is untouched
    EXPECT_EQ(census.num_vertices, 2u);
    EXPECT_EQ(census.num_directed_edges, 2u);
  });
}

// --- parameterized: construction invariants across rank counts ---------------------

namespace {

using sweep_graph = tg::dodgr<std::uint64_t, std::uint64_t>;

constexpr tg::vertex_id kSweepN = 64;
constexpr tg::vertex_id kMetaOnly = 1000;  ///< receives metadata, no edges
constexpr tg::vertex_id kLoopOnly = 1001;  ///< only ever named by self-loops

/// Timestamp of rank r's copy of the ring edge {v, v+1} (chord {v, v+5}:
/// +50): copies differ per rank, so the merge policy decides.
std::uint64_t sweep_ts(tg::vertex_id v, bool chord, int rank) {
  return 100 * (v + 1) + (chord ? 50 : 0) + static_cast<std::uint64_t>(rank);
}

/// Every rank contributes the whole ring + chords graph (chords reversed),
/// then rank 0 labels every vertex twice (a decoy, then 3v: the last
/// arrival must win), adds a metadata-only vertex and a vertex whose only
/// edges are self-loops.
template <typename Merge>
void build_sweep(tc::communicator& c, sweep_graph& g) {
  tg::graph_builder<std::uint64_t, std::uint64_t, Merge> builder(c);
  for (tg::vertex_id v = 0; v < kSweepN; ++v) {
    builder.add_edge(v, (v + 1) % kSweepN, sweep_ts(v, false, c.rank()));
    builder.add_edge((v + 5) % kSweepN, v, sweep_ts(v, true, c.rank()));
  }
  if (c.rank0()) {
    for (tg::vertex_id v = 0; v < kSweepN; ++v) builder.add_vertex_meta(v, 3 * v + 1);
    for (tg::vertex_id v = 0; v < kSweepN; ++v) builder.add_vertex_meta(v, 3 * v);
    builder.add_vertex_meta(kMetaOnly, 42);
    builder.add_edge(kLoopOnly, kLoopOnly, 1);
    builder.add_edge(kLoopOnly, kLoopOnly, 2);
  }
  builder.build_into(g);
  EXPECT_EQ(c.all_reduce_sum(builder.local_dropped_self_loops()), 2u);
}

/// The merged timestamp the sweep graph must store on edge {x, y}.
std::uint64_t expected_ts(tg::vertex_id x, tg::vertex_id y, int last_rank) {
  const auto lo_of = [](tg::vertex_id a, tg::vertex_id b, tg::vertex_id step) {
    return (a + step) % kSweepN == b ? a : b;
  };
  const bool ring = (x + 1) % kSweepN == y || (y + 1) % kSweepN == x;
  const tg::vertex_id v = ring ? lo_of(x, y, 1) : lo_of(x, y, 5);
  return sweep_ts(v, !ring, last_rank);
}

template <typename Merge>
void check_sweep(tc::communicator& c, int winning_rank) {
  sweep_graph g(c);
  build_sweep<Merge>(c, g);
  const auto census = g.census();
  EXPECT_EQ(census.num_vertices, kSweepN + 1);  // ring + the metadata-only vertex
  EXPECT_EQ(census.num_directed_edges, 2 * 2 * kSweepN);  // 2n unique undirected edges
  EXPECT_EQ(census.max_degree, 4u);
  EXPECT_FALSE(g.local_find(kLoopOnly));
  if (const auto rec = g.local_find(kMetaOnly)) {
    EXPECT_EQ(rec->degree, 0u);
    EXPECT_EQ(rec->out_degree(), 0u);
    EXPECT_EQ(rec->meta, 42u);
  }

  // Orientation invariant (order_rank == degree under the default policy,
  // but the assertion must compare ranks to stay valid for any ordering),
  // metadata placement, and the merged duplicate timestamps.
  g.for_all_local([&](const tg::vertex_id& v, const sweep_graph::record_type& rec) {
    if (v == kMetaOnly) return;
    EXPECT_EQ(rec.meta, 3 * v);
    for (const auto& e : rec.adj) {
      EXPECT_TRUE(tg::order_less(v, rec.order_rank, e.target, e.target_rank));
      EXPECT_EQ(e.target_meta, 3 * e.target);
      EXPECT_EQ(e.edge_meta, expected_ts(v, e.target, winning_rank));
    }
  });
}

}  // namespace

class BuilderSweep : public ::testing::TestWithParam<int> {};

TEST_P(BuilderSweep, InvariantsHoldAcrossRankCounts) {
  tc::runtime::run(GetParam(), [](tc::communicator& c) {
    check_sweep<tg::merge::keep_least>(c, 0);
    check_sweep<tg::merge::keep_greatest>(c, c.size() - 1);
  });
}

// 3 and 7 do not divide the 64 ring vertices.
INSTANTIATE_TEST_SUITE_P(RankCounts, BuilderSweep, ::testing::Values(1, 2, 3, 5, 8, 7));

// --- pinned build content ------------------------------------------------------------

namespace {

namespace gen = tripoll::gen;

constexpr int kPinDelta = -4;

/// Fold every rank's snapshot_id() of freeze(g) into one id (rank order),
/// checking that every freeze thread count produces the same bytes.
template <typename Graph>
std::uint64_t folded_content_id(tc::communicator& c, Graph& g) {
  std::uint64_t first = 0;
  for (const int threads : {1, 2, 4, 8}) {
    tg::freeze_options opts;
    opts.threads = threads;
    std::uint64_t folded = 0;
    for (const std::uint64_t id : c.all_gather(tg::freeze(g, opts).snapshot_id())) {
      folded = tripoll::serial::hash_combine(folded, id);
    }
    if (threads == 1) first = folded;
    EXPECT_EQ(folded, first) << "freeze threads " << threads;
  }
  return first;
}

/// Build one quick ablation preset and return its folded content id.  The
/// three cover every column kind: rmat has no metadata, temporal merges
/// duplicate timestamps under keep_least, and web carries a u64 label per
/// vertex and a timestamp per edge.
std::uint64_t built_content_id(const std::string& preset, int ranks,
                               tg::ordering_policy ordering) {
  std::uint64_t id = 0;
  tc::runtime::run(ranks, [&](tc::communicator& c) {
    std::uint64_t mine = 0;
    if (preset == "rmat") {
      gen::plain_graph g(c);
      gen::build_dataset(c, g, gen::livejournal_like(kPinDelta), ordering);
      mine = folded_content_id(c, g);
    } else if (preset == "temporal") {
      gen::temporal_params params;
      params.scale = 13 + kPinDelta;
      gen::temporal_graph g(c);
      gen::build_temporal_graph(c, g, params, ordering);
      mine = folded_content_id(c, g);
    } else {
      tg::dodgr<std::uint64_t, std::uint64_t> g(c);
      tg::graph_builder<std::uint64_t, std::uint64_t> builder(c, ordering);
      gen::for_preset_edges(c, "web", kPinDelta, [&](tg::vertex_id u, tg::vertex_id v) {
        builder.add_edge(u, v, tripoll::serial::hash_combine(std::min(u, v), std::max(u, v)));
        if (u == v) return;
        builder.add_vertex_meta(u, tripoll::serial::splitmix64(u) % 64);
        builder.add_vertex_meta(v, tripoll::serial::splitmix64(v) % 64);
      });
      builder.build_into(g);
      mine = folded_content_id(c, g);
    }
    if (c.rank0()) id = mine;
  });
  return id;
}

}  // namespace

// Reference content ids, captured from an independent (hash-map) builder:
// no frozen byte of any preset, rank count or ordering may move.
TEST(BuildContent, FrozenBytesMatchPinnedIds) {
  struct pin {
    const char* preset;
    int ranks;
    tg::ordering_policy ordering;
    std::uint64_t id;
  };
  constexpr auto deg = tg::ordering_policy::degree;
  constexpr auto dgn = tg::ordering_policy::degeneracy;
  const pin pins[] = {
      {"rmat", 1, deg, 0x61e64db3c5daea51ull},
      {"rmat", 2, deg, 0x5272b754cd797417ull},
      {"rmat", 4, deg, 0x9eac077923b1d395ull},
      {"rmat", 1, dgn, 0x1d7c119bde691f25ull},
      {"rmat", 2, dgn, 0xfb58ef0ce3d49032ull},
      {"rmat", 4, dgn, 0x618834466e783960ull},
      {"temporal", 1, deg, 0x02bc45fa209187c9ull},
      {"temporal", 2, deg, 0x7e1a97a816d2bb3dull},
      {"temporal", 4, deg, 0xa713bf2c080dfd19ull},
      {"temporal", 1, dgn, 0xc6aabf7e14457bf0ull},
      {"temporal", 2, dgn, 0x581ae4a2325520e8ull},
      {"temporal", 4, dgn, 0xdc55fd3610699317ull},
      {"web", 1, deg, 0xa9ccd0c43c693c66ull},
      {"web", 2, deg, 0xa2f789739c08127cull},
      {"web", 4, deg, 0x3a1776098c176109ull},
      {"web", 1, dgn, 0xb6ec35cc8ea8587aull},
      {"web", 2, dgn, 0x9a58271cc13ce182ull},
      {"web", 4, dgn, 0x978e38915ed9fc02ull},
  };
  for (const pin& p : pins) {
    const std::uint64_t id = built_content_id(p.preset, p.ranks, p.ordering);
    EXPECT_EQ(id, p.id) << p.preset << " ranks=" << p.ranks << " "
                        << tg::ordering_name(p.ordering) << ": got 0x" << std::hex << id;
  }
}

// String metadata hashes by value, not by object bytes (heap pointers): two
// independent builds of the FQDN-labelled quick web preset, frozen at any
// thread count, report the same content id.
TEST(BuildContent, StringLabelIdsAreContentIds) {
  const auto build_id = [] {
    std::uint64_t id = 0;
    tc::runtime::run(2, [&](tc::communicator& c) {
      gen::web_graph g(c);
      gen::build_web_graph(c, g, gen::standard_suite(kPinDelta)[3].web);
      const std::uint64_t mine = folded_content_id(c, g);
      if (c.rank0()) id = mine;
    });
    return id;
  };
  const std::uint64_t first = build_id();
  EXPECT_EQ(build_id(), first);
}
