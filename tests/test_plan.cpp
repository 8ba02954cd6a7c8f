// Tests for the declarative survey-plan API (core/plan.hpp): sender-side
// wire projections, multi-survey fusion, stateful/bool callbacks, and
// view-typed string metadata on the receive path.
//
// The core equivalence matrix (projected == identity results; one fused
// run == N sequential runs) executes across BOTH transport backends, both
// vertex orderings and both survey modes.  Socket ranks are forked child
// processes, so assertions there run INSIDE the ranks and surface as
// thrown exceptions (child exit status), which the parent-side
// EXPECT_NO_THROW turns into test failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/analytics.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"
#include "serial/hash.hpp"
#include "serial/wire_guard.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
namespace cb = tripoll::callbacks;

using tripoll::survey_mode;

namespace {

/// In-rank check that works from forked socket ranks: throw, don't EXPECT.
void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error("plan check failed: " + what);
}

// --- rich bitwise metadata -------------------------------------------------------

struct interaction_meta {
  std::uint64_t ts = 0;
  std::uint64_t weight = 0;
  std::array<char, 16> tag{};
};
TRIPOLL_WIRE_ASSERT(interaction_meta, ts, weight, tag);

struct profile_meta {
  std::uint64_t label = 0;
  std::array<char, 24> name{};
};
TRIPOLL_WIRE_ASSERT(profile_meta, label, name);

using rich_graph = tg::dodgr<profile_meta, interaction_meta>;

std::uint64_t edge_ts(tg::vertex_id u, tg::vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 100000;
}

std::uint64_t vertex_label(tg::vertex_id v) {
  return tripoll::serial::splitmix64(v ^ 0xFACE) % 16;
}

/// K8 plus a moderately dense ER graph: triangles on every rank, pulls
/// granted in push_pull mode.
void build_rich(tc::communicator& c, rich_graph& g, tg::ordering_policy ordering) {
  tg::graph_builder<profile_meta, interaction_meta> builder(c, ordering);
  const auto add = [&](tg::vertex_id u, tg::vertex_id v) {
    interaction_meta em;
    em.ts = edge_ts(u, v);
    em.weight = u + v;
    builder.add_edge(u, v, em);
    for (const tg::vertex_id x : {u, v}) {
      profile_meta vm;
      vm.label = vertex_label(x);
      builder.add_vertex_meta(x, vm);
    }
  };
  if (c.rank0()) {
    for (tg::vertex_id u = 0; u < 8; ++u) {
      for (tg::vertex_id v = u + 1; v < 8; ++v) add(u, v);
    }
  }
  // Distributed slice of a deterministic ER stream over vertices 100..179.
  tripoll::gen::erdos_renyi_generator er(80, 500, 99);
  for (std::uint64_t k = static_cast<std::uint64_t>(c.rank()); k < er.num_edges();
       k += static_cast<std::uint64_t>(c.size())) {
    const auto e = er.edge_at(k);
    if (e.u == e.v) continue;
    add(e.u + 100, e.v + 100);
  }
  builder.build_into(g);
}

/// Local closure histogram (no RPC traffic from the callback itself).
struct hist : std::map<cb::closure_bin, std::uint64_t> {
  hist fork() const { return {}; }
  void join(hist&& slice) {
    for (const auto& [bin, n] : slice) (*this)[bin] += n;
  }
};

void bin_closure(std::uint64_t a, std::uint64_t b, std::uint64_t c, hist& h) {
  ++h[cb::closure_bin_of(a, b, c)];
}

/// Identity-projection callback reading the rich structs.
struct rich_closure_cb {
  template <typename View>
  void operator()(const View& v, hist& h) const {
    bin_closure(v.meta_pq.ts, v.meta_pr.ts, v.meta_qr.ts, h);
  }
};

/// Projected callback: edge metadata already reduced to the timestamp.
struct ts_closure_cb {
  template <typename View>
  void operator()(const View& v, hist& h) const {
    bin_closure(static_cast<std::uint64_t>(v.meta_pq),
                static_cast<std::uint64_t>(v.meta_pr),
                static_cast<std::uint64_t>(v.meta_qr), h);
  }
};

/// Stateful bool-returning filter (small functor carried by value).
struct hot_filter_cb {
  std::uint64_t threshold = 0;

  template <typename View>
  bool operator()(const View& v, cb::count_context& hot) const {
    if (static_cast<std::uint64_t>(v.meta_pq) < threshold ||
        static_cast<std::uint64_t>(v.meta_pr) < threshold ||
        static_cast<std::uint64_t>(v.meta_qr) < threshold) {
      return false;
    }
    ++hot.triangles;
    return true;
  }
};

struct edge_ts_projection {
  std::uint64_t operator()(const interaction_meta& m) const { return m.ts; }
};

/// Additive digest so per-rank histograms compare via all_reduce_sum.
std::uint64_t hist_digest(const hist& h) {
  std::uint64_t sum = 0;
  for (const auto& [bin, n] : h) {
    sum += n * tripoll::serial::splitmix64((std::uint64_t{bin.first} << 32) | bin.second);
  }
  return sum;
}

}  // namespace

// --- the equivalence matrix: backends x orderings x modes ---------------------------

class PlanMatrix
    : public ::testing::TestWithParam<
          std::tuple<tc::backend_kind, tg::ordering_policy, survey_mode>> {
 protected:
  template <typename F>
  void run_ranks(int nranks, F&& fn) {
    if (std::get<0>(GetParam()) == tc::backend_kind::inproc) {
      (void)tc::runtime::run(nranks, std::forward<F>(fn));
    } else {
      tc::runtime::run_socket_local(nranks, std::forward<F>(fn));
    }
  }
};

TEST_P(PlanMatrix, ProjectedFusedAndSequentialAgree) {
  const auto [backend, ordering, mode] = GetParam();
  (void)backend;
  EXPECT_NO_THROW(run_ranks(3, [ordering = ordering, mode = mode](tc::communicator& c) {
    rich_graph g(c);
    build_rich(c, g, ordering);
    auto fz = tg::freeze(g);

    // 1. Identity plan: full 32/40-byte structs cross the wire.
    hist id_hist;
    auto identity = tripoll::survey(fz).add(rich_closure_cb{}, id_hist).run({mode});

    // 2. Projected plan: vertex meta dropped, edge meta -> 8-byte timestamp.
    hist proj_hist;
    auto projected = tripoll::survey(fz)
                         .project_vertex(tripoll::drop_projection{})
                         .project_edge(edge_ts_projection{})
                         .add(ts_closure_cb{}, proj_hist)
                         .run({mode});

    // 3. Sequential single-callback projected runs...
    hist seq_hist;
    cb::count_context seq_hot;
    cb::count_context seq_count;
    auto s1 = tripoll::survey(fz)
                  .project_vertex(tripoll::drop_projection{})
                  .project_edge(edge_ts_projection{})
                  .add(cb::count_callback{}, seq_count)
                  .run({mode});
    auto s2 = tripoll::survey(fz)
                  .project_vertex(tripoll::drop_projection{})
                  .project_edge(edge_ts_projection{})
                  .add(ts_closure_cb{}, seq_hist)
                  .run({mode});
    auto s3 = tripoll::survey(fz)
                  .project_vertex(tripoll::drop_projection{})
                  .project_edge(edge_ts_projection{})
                  .add(hot_filter_cb{50000}, seq_hot)
                  .run({mode});

    // 4. ...and the same three fused into ONE traversal.
    hist fused_hist;
    cb::count_context fused_hot;
    cb::count_context fused_count;
    auto fused = tripoll::survey(fz)
                     .project_vertex(tripoll::drop_projection{})
                     .project_edge(edge_ts_projection{})
                     .add(cb::count_callback{}, fused_count)
                     .add(ts_closure_cb{}, fused_hist)
                     .add(hot_filter_cb{50000}, fused_hot)
                     .run({mode});

    const auto t = identity.total.triangles_found;
    require(t > 0, "no triangles surveyed");
    require(projected.total.triangles_found == t, "projected triangle count");
    require(fused.total.triangles_found == t, "fused triangle count");
    require(s1.total.triangles_found == t && s2.total.triangles_found == t &&
                s3.total.triangles_found == t,
            "sequential triangle counts");

    // Projection correctness: results bit-identical where comparable.
    const auto id_digest = c.all_reduce_sum(hist_digest(id_hist));
    const auto proj_digest = c.all_reduce_sum(hist_digest(proj_hist));
    const auto seq_digest = c.all_reduce_sum(hist_digest(seq_hist));
    const auto fused_digest = c.all_reduce_sum(hist_digest(fused_hist));
    require(id_digest == proj_digest, "projected closure histogram != identity");
    require(seq_digest == fused_digest, "fused closure histogram != sequential");

    // Fused multi-survey equivalence: per-callback results match the
    // sequential runs exactly.
    const auto seq_count_global = c.all_reduce_sum(seq_count.triangles);
    const auto fused_count_global = c.all_reduce_sum(fused_count.triangles);
    require(seq_count_global == fused_count_global, "fused count != sequential count");
    require(seq_hot.global_count(c) == fused_hot.global_count(c),
            "fused hot filter != sequential hot filter");

    // Per-callback slices: count/closure fire on every triangle, the bool
    // filter on a strict subset (thresholds chosen so both sides are
    // non-empty).
    require(fused.invocations[0] == t && fused.invocations[1] == t,
            "unconditional callbacks must fire per triangle");
    const auto hot_global = fused_hot.global_count(c);
    require(fused.invocations[2] == hot_global, "filter slice == filtered count");
    require(hot_global > 0 && hot_global < t, "filter should split the triangles");

    // Wire effect: the projected plan must ship strictly less than the
    // identity plan (3 ranks => real remote traffic), and fusing three
    // callbacks must not inflate the traversal beyond a single run's
    // traffic (callbacks here generate no RPCs of their own).
    require(projected.total.total.volume_bytes < identity.total.total.volume_bytes,
            "projection did not reduce survey volume");
    require(fused.total.total.volume_bytes == s2.total.total.volume_bytes,
            "fused traversal traffic != single-callback traffic");
  }));
}

INSTANTIATE_TEST_SUITE_P(
    BackendsOrderingsModes, PlanMatrix,
    ::testing::Combine(::testing::Values(tc::backend_kind::inproc,
                                         tc::backend_kind::socket),
                       ::testing::Values(tg::ordering_policy::degree,
                                         tg::ordering_policy::degeneracy),
                       ::testing::Values(survey_mode::push_only,
                                         survey_mode::push_pull)));

// --- string metadata arrives as string_view into the payload ------------------------

namespace {

using string_graph = tg::dodgr<std::string, tg::none>;

std::string fqdn_of(tg::vertex_id v) { return "host" + std::to_string(v) + ".example"; }

struct view_collect_ctx {
  std::vector<std::tuple<tg::vertex_id, std::string>> rows;  // (vertex, observed meta)

  view_collect_ctx fork() const { return {}; }
  void join(view_collect_ctx&& slice) {
    rows.insert(rows.end(), slice.rows.begin(), slice.rows.end());
  }
};

struct view_collect_cb {
  template <typename View>
  void operator()(const View& v, view_collect_ctx& ctx) const {
    // Satellite contract: plain std::string vertex metadata reaches the
    // callback as std::string_view (meta_ref) -- no owning copies on the
    // receive path.
    static_assert(std::is_same_v<std::remove_cvref_t<decltype(v.meta_p)>,
                                 std::string_view>,
                  "string metadata must arrive as string_view");
    ctx.rows.emplace_back(v.p, std::string(v.meta_p));
    ctx.rows.emplace_back(v.q, std::string(v.meta_q));
    ctx.rows.emplace_back(v.r, std::string(v.meta_r));
  }
};

}  // namespace

class StringMeta : public ::testing::TestWithParam<survey_mode> {};

TEST_P(StringMeta, ArrivesAsViewWithCorrectValues) {
  const auto mode = GetParam();
  tc::runtime::run(3, [mode](tc::communicator& c) {
    string_graph g(c);
    tg::graph_builder<std::string, tg::none> builder(c);
    if (c.rank0()) {
      for (tg::vertex_id u = 0; u < 8; ++u) {
        for (tg::vertex_id v = u + 1; v < 8; ++v) builder.add_edge(u, v);
        builder.add_vertex_meta(u, fqdn_of(u));
      }
    }
    builder.build_into(g);
    auto fz = tg::freeze(g);

    view_collect_ctx ctx;
    auto r = tripoll::survey(fz).add(view_collect_cb{}, ctx).run({mode});
    EXPECT_EQ(r.total.triangles_found, 56u);  // C(8,3)

    for (const auto& [v, meta] : ctx.rows) {
      EXPECT_EQ(meta, fqdn_of(v));
    }
    const auto rows = c.all_reduce_sum<std::uint64_t>(ctx.rows.size());
    EXPECT_EQ(rows, 3 * 56u);
  });
}

INSTANTIATE_TEST_SUITE_P(Modes, StringMeta,
                         ::testing::Values(survey_mode::push_only,
                                           survey_mode::push_pull));

// --- prebuilt analyses through their declared minimal projections -------------------

TEST(PlanFor, FqdnSurveyMatchesIdentityWrapper) {
  tc::runtime::run(2, [](tc::communicator& c) {
    string_graph g(c);
    tg::graph_builder<std::string, tg::none> builder(c);
    if (c.rank0()) {
      for (tg::vertex_id u = 0; u < 6; ++u) {
        for (tg::vertex_id v = u + 1; v < 6; ++v) builder.add_edge(u, v);
        builder.add_vertex_meta(u, fqdn_of(u % 4));  // some duplicate FQDNs
      }
    }
    builder.build_into(g);
    auto fz = tg::freeze(g);

    tc::counting_set<cb::fqdn_tuple> plan_counters(c);
    cb::fqdn_tuple_context plan_ctx{&plan_counters};
    (void)cb::plan_for(fz, cb::fqdn_tuple_callback{}, plan_ctx).run();
    plan_counters.finalize();

    tc::counting_set<cb::fqdn_tuple> wrap_counters(c);
    cb::fqdn_tuple_context wrap_ctx{&wrap_counters};
    (void)tripoll::triangle_survey(fz, cb::fqdn_tuple_callback{}, wrap_ctx);
    wrap_counters.finalize();

    EXPECT_EQ(plan_counters.gather_all(), wrap_counters.gather_all());
    EXPECT_EQ(c.all_reduce_sum(plan_ctx.distinct_fqdn_triangles),
              c.all_reduce_sum(wrap_ctx.distinct_fqdn_triangles));
  });
}

TEST(PlanFor, CountPlanShipsLessThanIdentityOnRichGraph) {
  tc::runtime::run(4, [](tc::communicator& c) {
    rich_graph g(c);
    build_rich(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);

    cb::count_context plan_ctx;
    const auto planned = cb::plan_for(fz, cb::count_callback{}, plan_ctx).run().slice(0);

    cb::count_context wrap_ctx;
    const auto wrapped = tripoll::triangle_survey(fz, cb::count_callback{}, wrap_ctx);

    EXPECT_EQ(planned.triangles_found, wrapped.triangles_found);
    EXPECT_EQ(plan_ctx.global_count(c), wrap_ctx.global_count(c));
    // drop-projected counting must ship strictly less than full metadata.
    EXPECT_LT(planned.total.volume_bytes, wrapped.total.volume_bytes);
  });
}

// --- closure-time analysis: sort-free callback vs explicit sort ---------------------

TEST(ClosureTimes, SortFreeBinningMatchesSortedReference) {
  // Cross-check the xor mid-element extraction against std::sort on
  // adversarial timestamp patterns (duplicates, all-equal, zero).
  const std::array<std::array<std::uint64_t, 3>, 6> cases = {{
      {100, 164, 1000}, {5, 5, 9}, {7, 7, 7}, {0, 1, 2}, {0, 0, 0}, {123, 7, 123},
  }};
  for (auto ts : cases) {
    hist h;
    bin_closure(ts[0], ts[1], ts[2], h);
    std::sort(ts.begin(), ts.end());
    const cb::closure_bin expected{cb::log2_bin(ts[1] - ts[0]),
                                   cb::log2_bin(ts[2] - ts[0])};
    ASSERT_EQ(h.size(), 1u);
    EXPECT_EQ(h.begin()->first, expected);
    EXPECT_EQ(h.begin()->second, 1u);
  }
}

// --- analytics fusion ----------------------------------------------------------------

TEST(Analytics, FusedClusteringAndSupportMatchesSeparateRuns) {
  tc::runtime::run(3, [](tc::communicator& c) {
    rich_graph g(c);
    build_rich(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);

    namespace ta = tripoll::analytics;
    const auto separate = ta::clustering_coefficients(fz);
    tc::counting_set<ta::edge_key> support_sep(c);
    (void)ta::edge_support(fz, support_sep);

    tc::counting_set<ta::edge_key> support_fused(c);
    const auto fused = ta::clustering_and_support(fz, support_fused);

    EXPECT_EQ(fused.triangles, separate.triangles);
    EXPECT_EQ(fused.total_wedges, separate.total_wedges);
    EXPECT_DOUBLE_EQ(fused.transitivity, separate.transitivity);
    EXPECT_DOUBLE_EQ(fused.average_local_cc, separate.average_local_cc);
    EXPECT_EQ(support_fused.gather_all(), support_sep.gather_all());
  });
}

// --- projection inference ------------------------------------------------------------

namespace {

/// u64/u64 metadata graph matching what the library callbacks project
/// (timestamp_projection needs a uint64-convertible edge meta).
using scalar_graph = tg::dodgr<std::uint64_t, std::uint64_t>;

void build_scalar(tc::communicator& c, scalar_graph& g) {
  tg::graph_builder<std::uint64_t, std::uint64_t> builder(c,
                                                          tg::ordering_policy::degree);
  const auto add = [&](tg::vertex_id u, tg::vertex_id v) {
    builder.add_edge(u, v, edge_ts(u, v));
    builder.add_vertex_meta(u, vertex_label(u));
    builder.add_vertex_meta(v, vertex_label(v));
  };
  if (c.rank0()) {
    for (tg::vertex_id u = 0; u < 8; ++u) {
      for (tg::vertex_id v = u + 1; v < 8; ++v) add(u, v);
    }
  }
  tripoll::gen::erdos_renyi_generator er(80, 500, 321);
  for (std::uint64_t k = static_cast<std::uint64_t>(c.rank()); k < er.num_edges();
       k += static_cast<std::uint64_t>(c.size())) {
    const auto e = er.edge_at(k);
    if (e.u == e.v) continue;
    add(e.u + 100, e.v + 100);
  }
  builder.build_into(g);
}

}  // namespace

TEST(PlanInference, UnionOfDeclaredProjectionTypes) {
  tc::runtime::run(1, [](tc::communicator& c) {
    scalar_graph g(c);
    build_scalar(c, g);
    cb::count_context cnt;
    tc::counting_set<cb::closure_bin> bins(c);
    cb::closure_time_context closure{&bins};
    cb::degree_triple_context degrees;
    cb::max_edge_label_context<std::uint64_t> labels;

    // drop ∪ drop stays drop.
    using only_count = decltype(tripoll::survey(g).add(cb::count_callback{}, cnt));
    static_assert(std::is_same_v<only_count::inferred_vertex_projection,
                                 tripoll::drop_projection>);
    static_assert(std::is_same_v<only_count::inferred_edge_projection,
                                 tripoll::drop_projection>);

    // drop defers to the non-trivial demand on either side.
    using count_closure = decltype(tripoll::survey(g)
                                       .add(cb::count_callback{}, cnt)
                                       .add(cb::closure_time_callback{}, closure));
    static_assert(std::is_same_v<count_closure::inferred_vertex_projection,
                                 tripoll::drop_projection>);
    static_assert(std::is_same_v<count_closure::inferred_edge_projection,
                                 cb::timestamp_projection>);

    using closure_degrees = decltype(tripoll::survey(g)
                                         .add(cb::closure_time_callback{}, closure)
                                         .add(cb::degree_triple_callback{}, degrees));
    static_assert(std::is_same_v<closure_degrees::inferred_vertex_projection,
                                 cb::degree_projection>);
    static_assert(std::is_same_v<closure_degrees::inferred_edge_projection,
                                 cb::timestamp_projection>);

    // Two distinct non-trivial demands widen to identity.
    using mixed = decltype(tripoll::survey(g)
                               .add(cb::closure_time_callback{}, closure)
                               .add(cb::max_edge_label_callback{}, labels));
    static_assert(std::is_same_v<mixed::inferred_vertex_projection,
                                 tripoll::identity_projection>);
    static_assert(std::is_same_v<mixed::inferred_edge_projection,
                                 tripoll::identity_projection>);
    SUCCEED();
  });
}

TEST(PlanInference, InferredRunEquivalentToExplicitProjections) {
  tc::runtime::run(3, [](tc::communicator& c) {
    scalar_graph g(c);
    build_scalar(c, g);
    auto fz = tg::freeze(g);

    const auto run_once = [&](auto plan, cb::count_context& cnt,
                              tc::counting_set<cb::closure_bin>& bins) {
      auto res = plan.run({});
      bins.finalize();
      (void)cnt;
      return res;
    };

    cb::count_context c1, c2, c3;
    tc::counting_set<cb::closure_bin> b1(c), b2(c), b3(c);
    cb::closure_time_context cl1{&b1}, cl2{&b2}, cl3{&b3};

    auto inferred = run_once(tripoll::survey(fz)
                                 .add(cb::count_callback{}, c1)
                                 .add(cb::closure_time_callback{}, cl1)
                                 .infer_projections(),
                             c1, b1);
    auto explicit_ = run_once(tripoll::survey(fz)
                                  .project_vertex(tripoll::drop_projection{})
                                  .project_edge(cb::timestamp_projection{})
                                  .add(cb::count_callback{}, c2)
                                  .add(cb::closure_time_callback{}, cl2),
                              c2, b2);
    auto identity = run_once(tripoll::survey(fz)
                                 .add(cb::count_callback{}, c3)
                                 .add(cb::closure_time_callback{}, cl3),
                             c3, b3);

    // Inferred == explicitly projected, bit for bit (traffic included).
    require(inferred.total.triangles_found == explicit_.total.triangles_found,
            "inference changed the triangle count");
    require(inferred.total.total.volume_bytes == explicit_.total.total.volume_bytes,
            "inference changed the wire volume");
    require(inferred.total.total.messages == explicit_.total.total.messages,
            "inference changed the message count");
    require(inferred.invocations == explicit_.invocations,
            "inference changed callback fire counts");
    require(b1.gather_all() == b2.gather_all(),
            "inference changed the closure histogram");

    // ...and cheaper than the identity-projection run (vertex meta dropped).
    require(identity.total.triangles_found == inferred.total.triangles_found,
            "identity run found different triangles");
    require(inferred.total.total.volume_bytes < identity.total.total.volume_bytes,
            "inferred projections did not shrink the wire volume");
    require(b1.gather_all() == b3.gather_all(),
            "projection changed the closure histogram");
  });
}
