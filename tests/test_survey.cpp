// Correctness tests for the TriPoll survey engine: counts against ground
// truth, metadata alignment on every triangle, push vs pull equivalence,
// prebuilt callbacks.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "baselines/serial_tc.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
namespace cb = tripoll::callbacks;

using plain_graph = tg::dodgr<tg::none, tg::none>;
using tripoll::survey_mode;
using tripoll::survey_options;
using tripoll::triangle_survey;

namespace {

using edge_pairs = std::vector<std::pair<tg::vertex_id, tg::vertex_id>>;

void build_plain(tc::communicator& c, plain_graph& g, const edge_pairs& edges) {
  tg::graph_builder<tg::none, tg::none> builder(c);
  if (c.rank0()) {
    for (const auto& [u, v] : edges) builder.add_edge(u, v);
  }
  builder.build_into(g);
}

std::uint64_t survey_count(tc::communicator& c, plain_graph& g, survey_mode mode) {
  auto fz = tg::freeze(g);
  cb::count_context ctx;
  const auto result = triangle_survey(fz, cb::count_callback{}, ctx, {mode});
  const auto global = ctx.global_count(c);
  // The engine's internal cross-check counter must agree with the callback.
  EXPECT_EQ(result.triangles_found, global);
  return global;
}

edge_pairs complete_graph(tg::vertex_id n) {
  edge_pairs edges;
  for (tg::vertex_id u = 0; u < n; ++u) {
    for (tg::vertex_id v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return edges;
}

/// Independent brute-force count via neighbor-set probing.
std::uint64_t brute_force_count(const edge_pairs& edges) {
  std::map<tg::vertex_id, std::set<tg::vertex_id>> adj;
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    adj[u].insert(v);
    adj[v].insert(u);
  }
  std::uint64_t count = 0;
  for (const auto& [u, nbrs] : adj) {
    for (auto it = nbrs.begin(); it != nbrs.end(); ++it) {
      for (auto jt = std::next(it); jt != nbrs.end(); ++jt) {
        if (*it > u && adj[*it].contains(*jt)) ++count;
      }
    }
  }
  return count;
}

}  // namespace

// --- toy graphs, both modes, several rank counts -----------------------------------

struct ToyCase {
  const char* name;
  edge_pairs edges;
  std::uint64_t expected;
};

class ToyGraphs
    : public ::testing::TestWithParam<std::tuple<int, survey_mode, int>> {};

TEST_P(ToyGraphs, CountsMatch) {
  const auto [case_index, mode, nranks] = GetParam();
  static const std::vector<ToyCase> cases = {
      {"triangle", {{0, 1}, {1, 2}, {0, 2}}, 1},
      {"path4", {{0, 1}, {1, 2}, {2, 3}}, 0},
      {"star6", {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}, 0},
      {"cycle4", {{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 0},
      {"k4", complete_graph(4), 4},
      {"k5", complete_graph(5), 10},
      {"k33", {{0, 3}, {0, 4}, {0, 5}, {1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}}, 0},
      {"two_triangles_shared_edge", {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}}, 2},
      {"bowtie", {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}}, 2},
  };
  const auto& tcse = cases[static_cast<std::size_t>(case_index)];
  tc::runtime::run(nranks, [&](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, tcse.edges);
    EXPECT_EQ(survey_count(c, g, mode), tcse.expected) << tcse.name;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ToyGraphs,
    ::testing::Combine(::testing::Range(0, 9),
                       ::testing::Values(survey_mode::push_only, survey_mode::push_pull),
                       ::testing::Values(1, 3)));

// --- randomized cross-checks against the serial counter ------------------------------

class RandomCrossCheck
    : public ::testing::TestWithParam<std::tuple<int, survey_mode, int>> {};

TEST_P(RandomCrossCheck, MatchesSerialGroundTruth) {
  const auto [seed, mode, nranks] = GetParam();
  // Erdos-Renyi with enough density to have triangles.
  tripoll::gen::erdos_renyi_generator gen(200, 1500,
                                          static_cast<std::uint64_t>(seed));
  std::vector<tg::edge> edges;
  for (std::uint64_t k = 0; k < gen.num_edges(); ++k) edges.push_back(gen.edge_at(k));
  const auto expected = tripoll::baselines::serial_triangle_count(edges);

  tc::runtime::run(nranks, [&](tc::communicator& c) {
    plain_graph g(c);
    tg::graph_builder<tg::none, tg::none> builder(c);
    // Edges arrive distributed: each rank contributes a slice.
    for (std::size_t i = static_cast<std::size_t>(c.rank()); i < edges.size();
         i += static_cast<std::size_t>(c.size())) {
      builder.add_edge(edges[i].u, edges[i].v);
    }
    builder.build_into(g);
    EXPECT_EQ(survey_count(c, g, mode), expected);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomCrossCheck,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(survey_mode::push_only, survey_mode::push_pull),
                       ::testing::Values(1, 2, 4)));

TEST(RmatCrossCheck, SmallRmatBothModes) {
  tripoll::gen::rmat_generator gen(tripoll::gen::rmat_params{10, 8, 0.57, 0.19, 0.19, 7, true});
  std::vector<tg::edge> edges;
  for (std::uint64_t k = 0; k < gen.num_edges(); ++k) edges.push_back(gen.edge_at(k));
  const auto expected = tripoll::baselines::serial_triangle_count(edges);
  ASSERT_GT(expected, 0u);

  tc::runtime::run(4, [&](tc::communicator& c) {
    plain_graph g(c);
    tg::graph_builder<tg::none, tg::none> builder(c);
    for (std::size_t i = static_cast<std::size_t>(c.rank()); i < edges.size();
         i += static_cast<std::size_t>(c.size())) {
      builder.add_edge(edges[i].u, edges[i].v);
    }
    builder.build_into(g);
    EXPECT_EQ(survey_count(c, g, survey_mode::push_only), expected);
    EXPECT_EQ(survey_count(c, g, survey_mode::push_pull), expected);
  });
}

// --- metadata alignment: every callback sees the right six pieces --------------------

namespace {

using meta_graph = tg::dodgr<std::uint64_t, std::uint64_t>;
using meta_row = std::array<std::uint64_t, 9>;

struct collect_context {
  std::vector<meta_row> rows;

  collect_context fork() const { return {}; }
  void join(collect_context&& slice) {
    rows.insert(rows.end(), slice.rows.begin(), slice.rows.end());
  }
};

struct collect_callback {
  void operator()(const tripoll::triangle_view<std::uint64_t, std::uint64_t>& v,
                  collect_context& ctx) const {
    ctx.rows.push_back(meta_row{v.p, v.q, v.r, v.meta_p, v.meta_q, v.meta_r, v.meta_pq,
                                v.meta_pr, v.meta_qr});
  }
};

constexpr std::uint64_t vmeta(tg::vertex_id v) { return v * 7 + 1; }
constexpr std::uint64_t emeta(tg::vertex_id u, tg::vertex_id v) {
  return std::min(u, v) * 1000 + std::max(u, v);
}

}  // namespace

class MetadataAlignment : public ::testing::TestWithParam<std::tuple<survey_mode, int>> {};

TEST_P(MetadataAlignment, AllSixPiecesCorrect) {
  const auto [mode, nranks] = GetParam();
  // K8 plus a pendant: uniform degrees inside the clique exercise hash
  // tie-breaking; every triangle's metadata must align exactly.
  const auto k8 = complete_graph(8);

  tc::runtime::run(nranks, [&](tc::communicator& c) {
    meta_graph g(c);
    tg::graph_builder<std::uint64_t, std::uint64_t> builder(c);
    if (c.rank0()) {
      for (const auto& [u, v] : k8) builder.add_edge(u, v, emeta(u, v));
      builder.add_edge(0, 100, emeta(0, 100));
      for (tg::vertex_id v = 0; v < 8; ++v) builder.add_vertex_meta(v, vmeta(v));
      builder.add_vertex_meta(100, vmeta(100));
    }
    builder.build_into(g);
    auto fz = tg::freeze(g);

    collect_context ctx;
    triangle_survey(fz, collect_callback{}, ctx, {mode});

    auto per_rank = c.all_gather(ctx.rows);
    std::vector<meta_row> all;
    for (auto& v : per_rank) all.insert(all.end(), v.begin(), v.end());
    ASSERT_EQ(all.size(), 56u);  // C(8,3)

    std::set<std::tuple<tg::vertex_id, tg::vertex_id, tg::vertex_id>> seen;
    for (const auto& row : all) {
      const tg::vertex_id p = row[0], q = row[1], r = row[2];
      // Distinct, and an actual triangle in K8.
      EXPECT_LT(p, 8u);
      EXPECT_LT(q, 8u);
      EXPECT_LT(r, 8u);
      // Ordering p <+ q <+ r (all degrees 7 inside the clique).
      EXPECT_TRUE(tg::degree_less(p, 7, q, 7));
      EXPECT_TRUE(tg::degree_less(q, 7, r, 7));
      // Each triangle reported exactly once.
      EXPECT_TRUE(seen.insert({p, q, r}).second);
      // All six metadata pieces.
      EXPECT_EQ(row[3], vmeta(p));
      EXPECT_EQ(row[4], vmeta(q));
      EXPECT_EQ(row[5], vmeta(r));
      EXPECT_EQ(row[6], emeta(p, q));
      EXPECT_EQ(row[7], emeta(p, r));
      EXPECT_EQ(row[8], emeta(q, r));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    ModesRanks, MetadataAlignment,
    ::testing::Combine(::testing::Values(survey_mode::push_only, survey_mode::push_pull),
                       ::testing::Values(1, 2, 4)));

// --- pull path actually exercised ---------------------------------------------------

TEST(PushPull, PullsGrantedOnDenseGraph) {
  // In K24 the top-order vertices have tiny d+ but receive huge candidate
  // batches, so pulls must be granted; counts stay exact either way.
  const auto edges = complete_graph(24);
  const auto expected = brute_force_count(edges);
  tc::runtime::run(3, [&](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, edges);
    auto fz = tg::freeze(g);
    cb::count_context ctx;
    const auto result =
        triangle_survey(fz, cb::count_callback{}, ctx, {survey_mode::push_pull});
    EXPECT_EQ(ctx.global_count(c), expected);
    EXPECT_GT(result.pulls_granted, 0u);
    EXPECT_GT(result.pull.messages, 0u);
  });
}

TEST(PushPull, PulledClosingMatchesPushOnly) {
  // K24 plus a pendant with uint64 metadata: the top-order vertices are
  // pulled, so these rows come from the pulled-list closing step.  The
  // window [1000, 21000) drops the edges of vertex 0 and those among
  // {21, 22, 23}.  Every row must equal push_only's, all nine fields, and at
  // one thread a (p, q)'s rows fire in ascending <+ order of r.
  constexpr std::uint64_t t0 = 1000, t1 = 21000;
  const auto k24 = complete_graph(24);
  edge_pairs admitted;
  for (const auto& [u, v] : k24) {
    if (emeta(u, v) >= t0 && emeta(u, v) < t1) admitted.emplace_back(u, v);
  }
  ASSERT_LT(admitted.size(), k24.size());
  const auto expected = brute_force_count(admitted);
  // Under degree ordering the rank is the degree: 0 has 24 with the pendant.
  const auto order_less = [](tg::vertex_id u, tg::vertex_id v) {
    const auto deg = [](tg::vertex_id x) -> std::uint64_t { return x == 0 ? 24 : 23; };
    return tg::degree_less(u, deg(u), v, deg(v));
  };

  for (const int nranks : {1, 2, 3}) {
    for (const int threads : {1, 2}) {
      tc::runtime::run(nranks, [&](tc::communicator& c) {
        meta_graph g(c);
        tg::graph_builder<std::uint64_t, std::uint64_t> builder(c);
        if (c.rank0()) {
          for (const auto& [u, v] : k24) builder.add_edge(u, v, emeta(u, v));
          builder.add_edge(0, 100, emeta(0, 100));
          for (tg::vertex_id v = 0; v < 24; ++v) builder.add_vertex_meta(v, vmeta(v));
          builder.add_vertex_meta(100, vmeta(100));
        }
        builder.build_into(g);
        auto fz = tg::freeze(g);

        const auto rows_of = [&](survey_mode mode, std::uint64_t& pulls) {
          collect_context ctx;
          const auto r = tripoll::survey(fz)
                             .window(t0, t1)
                             .add(collect_callback{}, ctx)
                             .run({mode, threads});
          pulls = r.total.pulls_granted;
          return ctx.rows;
        };
        std::uint64_t pulls = 0, no_pulls = 0;
        const auto local = rows_of(survey_mode::push_pull, pulls);
        auto pushed = c.all_gather(rows_of(survey_mode::push_only, no_pulls));
        auto pulled = c.all_gather(local);
        EXPECT_GT(pulls, 0u) << "ranks " << nranks << " threads " << threads;

        std::vector<meta_row> want, got;
        for (auto& v : pushed) want.insert(want.end(), v.begin(), v.end());
        for (auto& v : pulled) got.insert(got.end(), v.begin(), v.end());
        EXPECT_EQ(got.size(), expected);
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "ranks " << nranks << " threads " << threads;

        if (threads == 1) {
          for (std::size_t k = 1; k < local.size(); ++k) {
            const meta_row& a = local[k - 1];
            const meta_row& b = local[k];
            if (a[0] != b[0] || a[1] != b[1]) continue;
            EXPECT_TRUE(order_less(a[2], b[2]))
                << "(p, q) = (" << a[0] << ", " << a[1] << "): r " << a[2]
                << " fired before " << b[2];
          }
        }
      });
    }
  }
}

namespace {

using string_graph = tg::dodgr<std::string, std::uint64_t>;

/// p, q, r, their three labels and the three edge stamps.
using string_row = std::tuple<tg::vertex_id, tg::vertex_id, tg::vertex_id, std::string,
                              std::string, std::string, std::uint64_t, std::uint64_t,
                              std::uint64_t>;

struct string_collect_context {
  std::vector<string_row> rows;

  string_collect_context fork() const { return {}; }
  void join(string_collect_context&& slice) {
    rows.insert(rows.end(), slice.rows.begin(), slice.rows.end());
  }
};

struct string_collect_callback {
  template <typename View>
  void operator()(const View& v, string_collect_context& ctx) const {
    ctx.rows.emplace_back(v.p, v.q, v.r, std::string(std::string_view(v.meta_p)),
                          std::string(std::string_view(v.meta_q)),
                          std::string(std::string_view(v.meta_r)), v.meta_pq, v.meta_pr,
                          v.meta_qr);
  }
};

/// A label longer than any small-string buffer, so a view that outlives its
/// string reads freed heap (the sanitizer build catches it).
std::string long_label(tg::vertex_id v) {
  return "host-" + std::to_string(v) + ".pulled-closing.example.org";
}

}  // namespace

TEST(PushPull, PulledStringMetaMatchesPushOnly) {
  // The string twin of PulledClosingMatchesPushOnly: a pulled list carries
  // no meta(q), so the receiver reads it from its sources' Adjm+ entries for
  // q.  Every row, labels included, must equal push_only's.
  const auto k24 = complete_graph(24);
  const auto expected = brute_force_count(k24);
  for (const int nranks : {1, 2, 3}) {
    for (const int threads : {1, 2}) {
      tc::runtime::run(nranks, [&](tc::communicator& c) {
        string_graph g(c);
        tg::graph_builder<std::string, std::uint64_t> builder(c);
        if (c.rank0()) {
          for (const auto& [u, v] : k24) builder.add_edge(u, v, emeta(u, v));
          builder.add_edge(0, 100, emeta(0, 100));
          for (tg::vertex_id v = 0; v < 24; ++v) builder.add_vertex_meta(v, long_label(v));
          builder.add_vertex_meta(100, long_label(100));
        }
        builder.build_into(g);
        auto fz = tg::freeze(g);

        const auto rows_of = [&](survey_mode mode, std::uint64_t& pulls) {
          string_collect_context ctx;
          const auto r =
              tripoll::survey(fz).add(string_collect_callback{}, ctx).run({mode, threads});
          pulls = r.total.pulls_granted;
          return ctx.rows;
        };
        std::uint64_t pulls = 0, no_pulls = 0;
        auto pulled = c.all_gather(rows_of(survey_mode::push_pull, pulls));
        auto pushed = c.all_gather(rows_of(survey_mode::push_only, no_pulls));
        const std::string where =
            "ranks " + std::to_string(nranks) + " threads " + std::to_string(threads);
        EXPECT_GT(pulls, 0u) << where;

        std::vector<string_row> want, got;
        for (auto& v : pushed) want.insert(want.end(), v.begin(), v.end());
        for (auto& v : pulled) got.insert(got.end(), v.begin(), v.end());
        EXPECT_EQ(got.size(), expected) << where;
        for (const string_row& row : got) {
          EXPECT_EQ(std::get<4>(row), long_label(std::get<1>(row))) << where;
        }
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << where;
      });
    }
  }
}

TEST(PushPull, DryRunSendsOneRequestPerDestination) {
  // The dry run sends each destination rank one request listing every q it
  // wants pulled (8 bytes per q), and nothing comes back.  At one rank all
  // of it stays local.
  const auto k24 = complete_graph(24);
  for (const int nranks : {1, 2, 3}) {
    for (const int threads : {1, 2}) {
      tc::runtime::run(nranks, [&](tc::communicator& c) {
        plain_graph g(c);
        build_plain(c, g, k24);
        auto fz = tg::freeze(g);
        const auto run = [&](survey_mode mode) {
          cb::count_context ctx;
          return triangle_survey(fz, cb::count_callback{}, ctx, {mode, threads});
        };
        const auto pp = run(survey_mode::push_pull);
        const auto po = run(survey_mode::push_only);
        const std::string where =
            "ranks " + std::to_string(nranks) + " threads " + std::to_string(threads);
        const auto ranks = static_cast<std::uint64_t>(nranks);
        EXPECT_GT(pp.pulls_granted, 0u) << where;
        EXPECT_LE(pp.dry_run.messages, ranks * ranks) << where;
        EXPECT_LE(pp.dry_run.volume_bytes, 8 * pp.pulls_granted + 24 * ranks * ranks) << where;
        if (nranks == 1) {
          EXPECT_EQ(pp.dry_run.volume_bytes, 0u) << where;
        }
        EXPECT_EQ(pp.triangles_found, po.triangles_found) << where;
      });
    }
  }
}

TEST(PushPull, EmptyWindowProposesNothing) {
  // Every edge of K24 plus a pendant is stamped below 23000, so the window
  // [10^6, 2 * 10^6) admits none: the dry run scans no split, numbers no
  // target and proposes nothing, and the push and pull phases have no work.
  for (const int nranks : {1, 2, 3}) {
    for (const int threads : {1, 2}) {
      tc::runtime::run(nranks, [&](tc::communicator& c) {
        meta_graph g(c);
        tg::graph_builder<std::uint64_t, std::uint64_t> builder(c);
        if (c.rank0()) {
          for (const auto& [u, v] : complete_graph(24)) builder.add_edge(u, v, emeta(u, v));
          builder.add_edge(0, 100, emeta(0, 100));
        }
        builder.build_into(g);
        auto fz = tg::freeze(g);
        collect_context ctx;
        const auto r = tripoll::survey(fz)
                           .window(1'000'000, 2'000'000)
                           .add(collect_callback{}, ctx)
                           .run({survey_mode::push_pull, threads});
        const std::string where =
            "ranks " + std::to_string(nranks) + " threads " + std::to_string(threads);
        EXPECT_TRUE(ctx.rows.empty()) << where;
        EXPECT_EQ(r.total.triangles_found, 0u) << where;
        EXPECT_EQ(r.total.pulls_granted, 0u) << where;
        EXPECT_EQ(r.total.proposals_filtered, 0u) << where;
        EXPECT_EQ(r.total.wedge_candidates, 0u) << where;
        EXPECT_EQ(r.total.push_batches, 0u) << where;
        EXPECT_EQ(r.total.dry_run.volume_bytes, 0u) << where;
      });
    }
  }
}

TEST(PushPull, PhaseMetricsAddUp) {
  const auto edges = complete_graph(16);
  tc::runtime::run(2, [&](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, edges);
    auto fz = tg::freeze(g);
    cb::count_context ctx;
    const auto result =
        triangle_survey(fz, cb::count_callback{}, ctx, {survey_mode::push_pull});
    EXPECT_EQ(result.total.volume_bytes, result.dry_run.volume_bytes +
                                             result.push.volume_bytes +
                                             result.pull.volume_bytes);
    EXPECT_GE(result.total.seconds, 0.0);
  });
}

TEST(PushOnly, NoPullTrafficReported) {
  tc::runtime::run(2, [](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, complete_graph(10));
    auto fz = tg::freeze(g);
    cb::count_context ctx;
    const auto result =
        triangle_survey(fz, cb::count_callback{}, ctx, {survey_mode::push_only});
    EXPECT_EQ(result.dry_run.messages, 0u);
    EXPECT_EQ(result.pull.messages, 0u);
    EXPECT_EQ(result.pulls_granted, 0u);
    EXPECT_GT(result.push_batches, 0u);
  });
}

TEST(Survey, EmptyAndTrianglelessGraphs) {
  tc::runtime::run(2, [](tc::communicator& c) {
    plain_graph empty(c);
    build_plain(c, empty, {});
    EXPECT_EQ(survey_count(c, empty, survey_mode::push_pull), 0u);

    plain_graph single(c);
    build_plain(c, single, {{0, 1}});
    EXPECT_EQ(survey_count(c, single, survey_mode::push_only), 0u);
  });
}

TEST(Survey, RepeatedSurveysAreIdempotent) {
  tc::runtime::run(3, [](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, complete_graph(9));
    const auto first = survey_count(c, g, survey_mode::push_pull);
    const auto second = survey_count(c, g, survey_mode::push_pull);
    const auto third = survey_count(c, g, survey_mode::push_only);
    EXPECT_EQ(first, 84u);  // C(9,3)
    EXPECT_EQ(second, first);
    EXPECT_EQ(third, first);
  });
}

// --- prebuilt callbacks ---------------------------------------------------------------

TEST(Callbacks, Log2BinBoundaries) {
  using cb::log2_bin;
  EXPECT_EQ(log2_bin(0), 0u);
  EXPECT_EQ(log2_bin(1), 0u);
  EXPECT_EQ(log2_bin(2), 1u);
  EXPECT_EQ(log2_bin(3), 2u);
  EXPECT_EQ(log2_bin(4), 2u);
  EXPECT_EQ(log2_bin(5), 3u);
  EXPECT_EQ(log2_bin(1024), 10u);
  EXPECT_EQ(log2_bin(1025), 11u);
}

TEST(Callbacks, ClosureTimesBinning) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<tg::none, std::uint64_t> g(c);
    tg::graph_builder<tg::none, std::uint64_t> builder(c);
    if (c.rank0()) {
      // t1=100, t2=164, t3=1000: open=64 -> bin 6 (exact), close=900 -> bin 10.
      builder.add_edge(0, 1, 100);
      builder.add_edge(0, 2, 164);
      builder.add_edge(1, 2, 1000);
    }
    builder.build_into(g);
    auto fz = tg::freeze(g);

    tc::counting_set<cb::closure_bin> counters(c);
    cb::closure_time_context ctx{&counters};
    triangle_survey(fz, cb::closure_time_callback{}, ctx, {survey_mode::push_pull});
    counters.finalize();
    auto dist = counters.gather_all();
    ASSERT_EQ(dist.size(), 1u);
    EXPECT_EQ(dist.at({6u, 10u}), 1u);
  });
}

TEST(Callbacks, MaxEdgeLabelDistribution) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<std::uint32_t, std::uint32_t> g(c);
    tg::graph_builder<std::uint32_t, std::uint32_t> builder(c);
    if (c.rank0()) {
      // Triangle 0-1-2 with distinct vertex labels; max edge label 9.
      builder.add_edge(0, 1, 3);
      builder.add_edge(1, 2, 9);
      builder.add_edge(0, 2, 5);
      builder.add_vertex_meta(0, 10);
      builder.add_vertex_meta(1, 11);
      builder.add_vertex_meta(2, 12);
      // Triangle 3-4-5 with two equal vertex labels: must be excluded.
      builder.add_edge(3, 4, 1);
      builder.add_edge(4, 5, 2);
      builder.add_edge(3, 5, 3);
      builder.add_vertex_meta(3, 7);
      builder.add_vertex_meta(4, 7);
      builder.add_vertex_meta(5, 8);
    }
    builder.build_into(g);
    auto fz = tg::freeze(g);

    tc::counting_set<std::uint32_t> counters(c);
    cb::max_edge_label_context<std::uint32_t> ctx{&counters};
    triangle_survey(fz, cb::max_edge_label_callback{}, ctx, {survey_mode::push_only});
    counters.finalize();
    auto dist = counters.gather_all();
    ASSERT_EQ(dist.size(), 1u);
    EXPECT_EQ(dist.at(9u), 1u);
  });
}

TEST(Callbacks, DegreeTriples) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<std::uint64_t, tg::none> g(c);
    tg::graph_builder<std::uint64_t, tg::none> builder(c);
    if (c.rank0()) {
      // Triangle where all vertices have degree 2: log2 bin 1 each.
      builder.add_edge(0, 1);
      builder.add_edge(1, 2);
      builder.add_edge(0, 2);
      for (tg::vertex_id v = 0; v < 3; ++v) builder.add_vertex_meta(v, 2);
    }
    builder.build_into(g);
    auto fz = tg::freeze(g);

    tc::counting_set<cb::degree_triple> counters(c);
    cb::degree_triple_context ctx{&counters};
    triangle_survey(fz, cb::degree_triple_callback{}, ctx, {survey_mode::push_pull});
    counters.finalize();
    auto dist = counters.gather_all();
    ASSERT_EQ(dist.size(), 1u);
    EXPECT_EQ(dist.at({1u, 1u, 1u}), 1u);
  });
}

TEST(Callbacks, FqdnTuplesSkipNonDistinct) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<std::string, tg::none> g(c);
    tg::graph_builder<std::string, tg::none> builder(c);
    if (c.rank0()) {
      // Triangle with 3 distinct FQDNs.
      builder.add_edge(0, 1);
      builder.add_edge(1, 2);
      builder.add_edge(0, 2);
      builder.add_vertex_meta(0, "a.com");
      builder.add_vertex_meta(1, "b.com");
      builder.add_vertex_meta(2, "c.com");
      // Triangle where two pages share a domain: excluded.
      builder.add_edge(3, 4);
      builder.add_edge(4, 5);
      builder.add_edge(3, 5);
      builder.add_vertex_meta(3, "x.com");
      builder.add_vertex_meta(4, "x.com");
      builder.add_vertex_meta(5, "y.com");
    }
    builder.build_into(g);
    auto fz = tg::freeze(g);

    tc::counting_set<cb::fqdn_tuple> counters(c);
    cb::fqdn_tuple_context ctx{&counters};
    triangle_survey(fz, cb::fqdn_tuple_callback{}, ctx, {survey_mode::push_pull});
    counters.finalize();
    auto dist = counters.gather_all();
    ASSERT_EQ(dist.size(), 1u);
    EXPECT_EQ(dist.at({"a.com", "b.com", "c.com"}), 1u);
    EXPECT_EQ(c.all_reduce_sum(ctx.distinct_fqdn_triangles), 1u);
  });
}

TEST(Callbacks, LocalVertexParticipation) {
  tc::runtime::run(3, [](tc::communicator& c) {
    plain_graph g(c);
    build_plain(c, g, complete_graph(4));
    auto fz = tg::freeze(g);
    tc::counting_set<tg::vertex_id> per_vertex(c);
    cb::local_count_context ctx{&per_vertex};
    triangle_survey(fz, cb::local_count_callback{}, ctx, {survey_mode::push_pull});
    per_vertex.finalize();
    auto counts = per_vertex.gather_all();
    ASSERT_EQ(counts.size(), 4u);
    for (auto& [v, n] : counts) EXPECT_EQ(n, 3u);  // each vertex in C(3,2) triangles
  });
}
