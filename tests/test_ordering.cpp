// Tests for the pluggable vertex-ordering subsystem: degeneracy peeling on
// known graphs, out-degree bounds, determinism across rank counts, count
// equivalence of both orderings under both survey modes, and the
// "survey_result is identical on every rank" contract (including the
// all-reduced volume/message metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/serial_tc.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/rmat.hpp"
#include "gen/temporal.hpp"
#include "graph/builder.hpp"
#include "graph/dodgr.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
namespace cb = tripoll::callbacks;
using tg::ordering_policy;
using tripoll::survey_mode;
using tripoll::triangle_survey;

using plain_graph = tg::dodgr<tg::none, tg::none>;
using temporal_graph = tg::dodgr<tg::none, std::uint64_t>;
using edge_pairs = std::vector<std::pair<tg::vertex_id, tg::vertex_id>>;

namespace {

edge_pairs complete_graph(tg::vertex_id n) {
  edge_pairs edges;
  for (tg::vertex_id u = 0; u < n; ++u) {
    for (tg::vertex_id v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return edges;
}

/// Build from an explicit list (rank 0 contributes) under a chosen ordering,
/// returning the builder's peel stats.
tg::degeneracy_stats build_plain(tc::communicator& c, plain_graph& g,
                                 const edge_pairs& edges, ordering_policy ordering) {
  tg::graph_builder<tg::none, tg::none> builder(c, ordering);
  if (c.rank0()) {
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
  }
  builder.build_into(g);
  return builder.peel_stats();
}

void feed_rmat(tc::communicator& c, tg::graph_builder<tg::none, tg::none>& builder,
               std::uint32_t scale, std::uint64_t seed) {
  tripoll::gen::rmat_generator rmat(
      tripoll::gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, seed, true});
  tripoll::gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
    const auto e = rmat.edge_at(k);
    builder.add_edge(e.u, e.v);
  });
}

std::vector<tg::edge> rmat_edges(std::uint32_t scale, std::uint64_t seed) {
  tripoll::gen::rmat_generator rmat(
      tripoll::gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, seed, true});
  std::vector<tg::edge> edges;
  for (std::uint64_t k = 0; k < rmat.num_edges(); ++k) edges.push_back(rmat.edge_at(k));
  return edges;
}

/// Every integer field of a survey_result, in a fixed order, for bit-exact
/// cross-rank comparison.
std::vector<std::uint64_t> result_words(const tripoll::survey_result& r) {
  const auto phase = [](const tripoll::phase_metrics& m) {
    return std::vector<std::uint64_t>{m.volume_bytes, m.messages};
  };
  std::vector<std::uint64_t> words;
  for (const auto* m : {&r.dry_run, &r.push, &r.pull, &r.total}) {
    const auto p = phase(*m);
    words.insert(words.end(), p.begin(), p.end());
  }
  words.insert(words.end(), {r.pulls_granted, r.push_batches, r.wedge_candidates,
                             r.triangles_found, r.proposals_filtered});
  return words;
}

}  // namespace

// --- policy naming/parsing ----------------------------------------------------------

TEST(OrderingPolicy, ParseAndName) {
  EXPECT_EQ(tg::parse_ordering("degree"), ordering_policy::degree);
  EXPECT_EQ(tg::parse_ordering("degeneracy"), ordering_policy::degeneracy);
  EXPECT_FALSE(tg::parse_ordering("bogus").has_value());
  EXPECT_STREQ(tg::ordering_name(ordering_policy::degree), "degree");
  EXPECT_STREQ(tg::ordering_name(ordering_policy::degeneracy), "degeneracy");
}

// --- peeling on graphs with known degeneracy ----------------------------------------

TEST(DegeneracyPeel, KnownGraphs) {
  tc::runtime::run(3, [](tc::communicator& c) {
    {
      plain_graph g(c);  // path: degeneracy 1
      const auto s = build_plain(c, g, {{0, 1}, {1, 2}, {2, 3}}, ordering_policy::degeneracy);
      EXPECT_EQ(s.degeneracy, 1u);
      EXPECT_EQ(s.vertices, 4u);
    }
    {
      plain_graph g(c);  // cycle: degeneracy 2
      const auto s = build_plain(c, g, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                                 ordering_policy::degeneracy);
      EXPECT_EQ(s.degeneracy, 2u);
    }
    {
      plain_graph g(c);  // K5: degeneracy 4
      const auto s = build_plain(c, g, complete_graph(5), ordering_policy::degeneracy);
      EXPECT_EQ(s.degeneracy, 4u);
    }
    {
      plain_graph g(c);  // star: degeneracy 1 even though the hub has degree 8
      edge_pairs star;
      for (tg::vertex_id v = 1; v <= 8; ++v) star.emplace_back(0, v);
      const auto s = build_plain(c, g, star, ordering_policy::degeneracy);
      EXPECT_EQ(s.degeneracy, 1u);
    }
  });
}

TEST(DegeneracyPeel, StarPlusCliqueOutDegrees) {
  // Degree order points the star hub at the clique (hub degree 10 is mid
  // pack); degeneracy order peels all leaves first, then the hub at level 1
  // -- its out-degree collapses to the clique attachment only.
  edge_pairs edges = complete_graph(8);                             // vertices 0..7
  for (tg::vertex_id v = 100; v < 110; ++v) edges.emplace_back(8, v);  // star at 8
  edges.emplace_back(8, 0);                                         // attach hub
  tc::runtime::run(2, [&](tc::communicator& c) {
    plain_graph g_deg(c), g_core(c);
    build_plain(c, g_deg, edges, ordering_policy::degree);
    const auto s = build_plain(c, g_core, edges, ordering_policy::degeneracy);
    EXPECT_EQ(s.degeneracy, 7u);  // the K8
    // Under degeneracy order every out-degree is bounded by the degeneracy.
    g_core.for_all_local([&](const tg::vertex_id&, const plain_graph::record_type& rec) {
      EXPECT_LE(rec.adj.size(), s.degeneracy);
    });
    EXPECT_LE(g_core.census().wedge_checks, g_deg.census().wedge_checks);
  });
}

TEST(DegeneracyPeel, OutDegreeBoundedOnRmat) {
  tc::runtime::run(4, [](tc::communicator& c) {
    plain_graph g(c);
    tg::graph_builder<tg::none, tg::none> builder(c, ordering_policy::degeneracy);
    feed_rmat(c, builder, 10, 7);
    builder.build_into(g);
    const auto s = builder.peel_stats();
    ASSERT_GT(s.degeneracy, 0u);
    g.for_all_local([&](const tg::vertex_id& v, const plain_graph::record_type& rec) {
      EXPECT_LE(rec.adj.size(), s.degeneracy) << "vertex " << v;
      // Orientation invariant under the generalized order.
      for (const auto& e : rec.adj) {
        EXPECT_TRUE(tg::order_less(v, rec.order_rank, e.target, e.target_rank));
      }
    });
    EXPECT_EQ(g.ordering(), ordering_policy::degeneracy);
  });
}

// --- determinism: ranks and census independent of the rank count --------------------

TEST(DegeneracyPeel, DeterministicAcrossRankCounts) {
  std::map<tg::vertex_id, std::uint64_t> reference;
  std::uint64_t reference_wedges = 0;
  bool first = true;
  for (const int nranks : {1, 2, 4}) {
    std::map<tg::vertex_id, std::uint64_t> ranks_by_vertex;
    std::uint64_t wedges = 0;
    tc::runtime::run(nranks, [&](tc::communicator& c) {
      plain_graph g(c);
      tg::graph_builder<tg::none, tg::none> builder(c, ordering_policy::degeneracy);
      feed_rmat(c, builder, 9, 321);
      builder.build_into(g);
      std::vector<std::pair<tg::vertex_id, std::uint64_t>> local;
      g.for_all_local([&](const tg::vertex_id& v, const plain_graph::record_type& rec) {
        local.emplace_back(v, rec.order_rank);
      });
      auto per_rank = c.all_gather(local);
      const auto w = g.census().wedge_checks;
      if (c.rank0()) {
        for (auto& vec : per_rank) {
          for (auto& [v, r] : vec) ranks_by_vertex[v] = r;
        }
        wedges = w;
      }
    });
    if (first) {
      reference = ranks_by_vertex;
      reference_wedges = wedges;
      first = false;
    } else {
      EXPECT_EQ(ranks_by_vertex, reference) << nranks << " ranks";
      EXPECT_EQ(wedges, reference_wedges) << nranks << " ranks";
    }
  }
  EXPECT_FALSE(reference.empty());
}

// --- both orderings agree with ground truth under both modes ------------------------

class OrderingEquivalence
    : public ::testing::TestWithParam<std::tuple<ordering_policy, survey_mode, int>> {};

TEST_P(OrderingEquivalence, RmatCountsMatchSerial) {
  const auto [ordering, mode, nranks] = GetParam();
  const auto edges = rmat_edges(10, 99);
  const auto expected = tripoll::baselines::serial_triangle_count(edges);
  ASSERT_GT(expected, 0u);
  tc::runtime::run(nranks, [&, ordering = ordering, mode = mode](tc::communicator& c) {
    plain_graph g(c);
    tg::graph_builder<tg::none, tg::none> builder(c, ordering);
    feed_rmat(c, builder, 10, 99);
    builder.build_into(g);
    auto fz = tg::freeze(g);
    cb::count_context ctx;
    const auto result = triangle_survey(fz, cb::count_callback{}, ctx, {mode});
    EXPECT_EQ(ctx.global_count(c), expected);
    EXPECT_EQ(result.triangles_found, expected);
  });
}

TEST_P(OrderingEquivalence, TemporalCountsMatchSerial) {
  const auto [ordering, mode, nranks] = GetParam();
  tripoll::gen::temporal_params params;
  params.scale = 9;
  params.edge_factor = 12;
  const tripoll::gen::temporal_generator gen(params);
  std::vector<tg::edge> edges;
  for (std::uint64_t k = 0; k < gen.num_edges(); ++k) {
    const auto e = gen.edge_at(k);
    edges.push_back(tg::edge{e.u, e.v});
  }
  const auto expected = tripoll::baselines::serial_triangle_count(edges);
  ASSERT_GT(expected, 0u);
  tc::runtime::run(nranks, [&, ordering = ordering, mode = mode](tc::communicator& c) {
    temporal_graph g(c);
    tg::graph_builder<tg::none, std::uint64_t, tg::merge::keep_least> builder(c, ordering);
    tripoll::gen::for_rank_slice(c, gen.num_edges(), [&](std::uint64_t k) {
      const auto e = gen.edge_at(k);
      builder.add_edge(e.u, e.v, e.timestamp);
    });
    builder.build_into(g);
    auto fz = tg::freeze(g);
    cb::count_context ctx;
    triangle_survey(fz, cb::count_callback{}, ctx, {mode});
    EXPECT_EQ(ctx.global_count(c), expected);
  });
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesModesRanks, OrderingEquivalence,
    ::testing::Combine(::testing::Values(ordering_policy::degree,
                                         ordering_policy::degeneracy),
                       ::testing::Values(survey_mode::push_only, survey_mode::push_pull),
                       ::testing::Values(1, 4)));

// --- the survey_result contract: identical on every rank ----------------------------

class ResultAgreement
    : public ::testing::TestWithParam<std::tuple<ordering_policy, survey_mode>> {};

TEST_P(ResultAgreement, SurveyResultIdenticalOnEveryRank) {
  const auto [ordering, mode] = GetParam();
  tc::runtime::run(4, [ordering = ordering, mode = mode](tc::communicator& c) {
    plain_graph g(c);
    tg::graph_builder<tg::none, tg::none> builder(c, ordering);
    feed_rmat(c, builder, 10, 2024);
    builder.build_into(g);
    auto fz = tg::freeze(g);
    cb::count_context ctx;
    const auto result = triangle_survey(fz, cb::count_callback{}, ctx, {mode});

    // Every rank contributes its packed result; all must be bit-identical
    // (this is what the racy global-snapshot metrics used to violate).
    const auto words = result_words(result);
    const auto all_words = c.all_gather(words);
    const std::vector<double> seconds{result.dry_run.seconds, result.push.seconds,
                                      result.pull.seconds, result.total.seconds};
    const auto all_seconds = c.all_gather(seconds);
    for (int r = 0; r < c.size(); ++r) {
      EXPECT_EQ(all_words[static_cast<std::size_t>(r)], all_words[0])
          << "integer metrics differ between rank " << r << " and rank 0";
      EXPECT_EQ(all_seconds[static_cast<std::size_t>(r)], all_seconds[0])
          << "timings differ between rank " << r << " and rank 0";
    }
    // Volume/messages must be the global sums (nonzero on a 4-rank graph
    // with cross-rank edges), not some rank's local share of them.
    EXPECT_GT(result.push.volume_bytes + result.pull.volume_bytes, 0u);
    EXPECT_EQ(result.total.messages,
              result.dry_run.messages + result.push.messages + result.pull.messages);
  });
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesModes, ResultAgreement,
    ::testing::Combine(::testing::Values(ordering_policy::degree,
                                         ordering_policy::degeneracy),
                       ::testing::Values(survey_mode::push_only, survey_mode::push_pull)));

// --- degeneracy ordering must shrink |W+| on the skewed RMAT preset ------------------

TEST(OrderingAblation, DegeneracyStrictlyReducesWedgeChecksOnRmat) {
  tc::runtime::run(4, [](tc::communicator& c) {
    plain_graph g_deg(c), g_core(c);
    {
      tg::graph_builder<tg::none, tg::none> b(c, ordering_policy::degree);
      feed_rmat(c, b, 12, 42);
      b.build_into(g_deg);
    }
    {
      tg::graph_builder<tg::none, tg::none> b(c, ordering_policy::degeneracy);
      feed_rmat(c, b, 12, 42);
      b.build_into(g_core);
    }
    const auto census_deg = g_deg.census();
    const auto census_core = g_core.census();
    EXPECT_LT(census_core.wedge_checks, census_deg.wedge_checks);
    EXPECT_LE(census_core.max_out_degree, census_deg.max_out_degree);

    // Identical global triangle counts under both orderings.
    auto fz_deg = tg::freeze(g_deg);
    auto fz_core = tg::freeze(g_core);
    cb::count_context ctx_deg, ctx_core;
    triangle_survey(fz_deg, cb::count_callback{}, ctx_deg, {survey_mode::push_pull});
    triangle_survey(fz_core, cb::count_callback{}, ctx_core, {survey_mode::push_pull});
    EXPECT_EQ(ctx_deg.global_count(c), ctx_core.global_count(c));
  });
}

// --- pull-proposal pre-filter: correctness unchanged, proposals drop ----------------

TEST(PullFilter, FilteredProposalsNeverChangeCounts) {
  // K16: heavy aggregation toward shared targets; some proposals are
  // hopeless (d+(q) >= candidate count) and must be filtered sender-side.
  const auto edges = complete_graph(16);
  tc::runtime::run(3, [&](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, edges, ordering_policy::degree);
    auto fz = tg::freeze(g);
    cb::count_context ctx;
    const auto result = triangle_survey(fz, cb::count_callback{}, ctx,
                                        {survey_mode::push_pull});
    EXPECT_EQ(ctx.global_count(c), 560u);  // C(16,3)
    EXPECT_GT(result.proposals_filtered, 0u);
  });
}
