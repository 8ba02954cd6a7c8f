// Tests for the frozen CSR storage layer (graph/frozen.hpp) and its binary
// snapshots (graph/snapshot.hpp): structural identity with the built
// graph, projection push-down at freeze time (sharing the built graph's
// columns and index), survey equivalence across the
// backend x ordering x mode x storage matrix (frozen, overlay, loaded
// snapshot), and snapshot round-trips (including mmap loads inside forked
// socket ranks).
//
// Socket ranks are forked child processes, so assertions there run INSIDE
// the ranks (thrown exceptions become child exit status), which the
// parent-side EXPECT_NO_THROW turns into test failures.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/analytics.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/io.hpp"
#include "graph/ordering.hpp"
#include "graph/overlay.hpp"
#include "graph/snapshot.hpp"
#include "serial/hash.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
namespace cb = tripoll::callbacks;

using tripoll::survey_mode;

namespace {

/// In-rank check that works from forked socket ranks: throw, don't EXPECT.
void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error("frozen check failed: " + what);
}

std::uint64_t edge_ts(tg::vertex_id u, tg::vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 100000;
}

std::uint64_t vertex_label(tg::vertex_id v) {
  return tripoll::serial::splitmix64(v ^ 0xBEEF) % 512;
}

using meta_graph = tg::dodgr<std::uint64_t, std::uint64_t>;

/// K8 plus a deterministic ER slab: triangles on every rank, pulls granted.
void build_meta_graph(tc::communicator& c, meta_graph& g,
                      tg::ordering_policy ordering) {
  tg::graph_builder<std::uint64_t, std::uint64_t> builder(c, ordering);
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
  tripoll::gen::erdos_renyi_generator er(80, 500, 1234);
  for (std::uint64_t k = static_cast<std::uint64_t>(c.rank()); k < er.num_edges();
       k += static_cast<std::uint64_t>(c.size())) {
    const auto e = er.edge_at(k);
    if (e.u == e.v) continue;
    add(e.u + 100, e.v + 100);
  }
  builder.build_into(g);
}

/// Local closure histogram + digest comparable across runs via reduce.
struct hist : std::map<cb::closure_bin, std::uint64_t> {
  hist fork() const { return {}; }
  void join(hist&& slice) {
    for (const auto& [bin, n] : slice) (*this)[bin] += n;
  }
};

struct closure_cb {
  template <typename View>
  void operator()(const View& v, hist& h) const {
    ++h[cb::closure_bin_of(static_cast<std::uint64_t>(v.meta_pq),
                           static_cast<std::uint64_t>(v.meta_pr),
                           static_cast<std::uint64_t>(v.meta_qr))];
  }
};

std::uint64_t hist_digest(const hist& h) {
  std::uint64_t sum = 0;
  for (const auto& [bin, n] : h) {
    sum += n * tripoll::serial::splitmix64((std::uint64_t{bin.first} << 32) | bin.second);
  }
  return sum;
}

/// Fresh per-test snapshot prefix under the system temp dir.
std::string fresh_prefix(const char* tag) {
  static std::atomic<int> counter{0};
  return (std::filesystem::temp_directory_path() /
          ("tripoll_frozen_" + std::string(tag) + "_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter.fetch_add(1))))
      .string();
}

void remove_snapshot(const std::string& prefix, int nranks) {
  for (int r = 0; r < nranks; ++r) {
    std::filesystem::remove(tg::snapshot_rank_path(prefix, r));
  }
}

}  // namespace

// --- structural identity ----------------------------------------------------------

TEST(Frozen, ColumnsMatchMutableRecords) {
  tc::runtime::run(3, [](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);

    ASSERT_EQ(fz.local_num_vertices(), g.local_num_vertices());
    const auto& ar = fz.arenas();
    ASSERT_EQ(ar.offset.size(), ar.vid.size() + 1);
    ASSERT_EQ(ar.offset[0], 0u);
    ASSERT_EQ(ar.offset[ar.vid.size()], fz.local_num_edges());

    // The frozen vertex walk is sorted by the <+ order key.
    for (std::size_t i = 1; i < ar.vid.size(); ++i) {
      EXPECT_TRUE(tg::make_order_key(ar.vid[i - 1], ar.order_rank[i - 1]) <
                  tg::make_order_key(ar.vid[i], ar.order_rank[i]));
    }

    // Every mutable record appears unchanged behind the view API.
    std::size_t checked = 0;
    g.for_all_local([&](const tg::vertex_id& v, const meta_graph::record_type& rec) {
      const auto view = fz.local_find(v);
      ASSERT_TRUE(view);
      EXPECT_EQ(view->degree, rec.degree);
      EXPECT_EQ(view->order_rank, rec.order_rank);
      EXPECT_EQ(view->meta, rec.meta);
      ASSERT_EQ(view->adj.size(), rec.adj.size());
      for (std::size_t j = 0; j < rec.adj.size(); ++j) {
        const auto e = view->adj[j];
        EXPECT_EQ(e.target, rec.adj[j].target);
        EXPECT_EQ(e.target_rank, rec.adj[j].target_rank);
        EXPECT_EQ(e.target_out_degree, rec.adj[j].target_out_degree);
        EXPECT_EQ(e.edge_meta, rec.adj[j].edge_meta);
        EXPECT_EQ(e.target_meta, rec.adj[j].target_meta);
      }
      ++checked;
    });
    EXPECT_EQ(checked, fz.local_num_vertices());
    EXPECT_FALSE(fz.local_find(999999999));

    // Census agrees with the built graph's.
    const auto a = g.census();
    const auto b = fz.census();
    EXPECT_EQ(a.num_vertices, b.num_vertices);
    EXPECT_EQ(a.num_directed_edges, b.num_directed_edges);
    EXPECT_EQ(a.max_degree, b.max_degree);
    EXPECT_EQ(a.max_out_degree, b.max_out_degree);
    EXPECT_EQ(a.wedge_checks, b.wedge_checks);
  });
}

TEST(Frozen, NoneColumnsOccupyZeroBytes) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<tg::none, tg::none> g(c);
    tg::graph_builder<tg::none, tg::none> builder(c);
    if (c.rank0()) {
      for (tg::vertex_id u = 0; u < 6; ++u) {
        for (tg::vertex_id v = u + 1; v < 6; ++v) builder.add_edge(u, v);
      }
    }
    builder.build_into(g);
    auto fz = tg::freeze(g);
    const auto& ar = fz.arenas();
    EXPECT_EQ(ar.vmeta.bytes(), 0u);
    EXPECT_EQ(ar.emeta.bytes(), 0u);
    EXPECT_EQ(ar.target_vmeta.bytes(), 0u);
    const auto s = fz.local_storage_stats();
    // Exactly three 8-byte edge columns remain.
    EXPECT_EQ(s.edge_bytes, fz.local_num_edges() * 24);
  });
}

TEST(Frozen, ProjectionPushDownStoresProjectedColumns) {
  tc::runtime::run(3, [](tc::communicator& c) {
    auto g = std::make_unique<meta_graph>(c);
    build_meta_graph(c, *g, tg::ordering_policy::degree);
    const auto& built = g->arenas();

    // An identity freeze shares every column and the id -> slot index.
    auto full = tg::freeze(*g);
    EXPECT_EQ(full.arenas().target.data(), built.target.data());
    EXPECT_EQ(full.arenas().emeta.data(), built.emeta.data());
    EXPECT_EQ(full.arenas().target_vmeta.data(), built.target_vmeta.data());
    EXPECT_EQ(full.index(), g->index());

    // Push the closure survey's projections into the arenas: vertex meta
    // dropped entirely, edge meta kept as the 8-byte timestamp.
    auto fz = tg::freeze(*g, tripoll::drop_projection{},
                         [](const std::uint64_t& ts) { return ts; });
    static_assert(std::is_same_v<decltype(fz), tg::frozen_dodgr<tg::none, std::uint64_t>>);
    const auto& ar = fz.arenas();
    EXPECT_EQ(ar.vmeta.bytes(), 0u);
    EXPECT_EQ(ar.target_vmeta.bytes(), 0u);
    EXPECT_EQ(ar.emeta.bytes(), fz.local_num_edges() * 8);

    // The projection stores new metadata columns only: the structural
    // columns and the index are the built graph's.
    EXPECT_EQ(ar.vid.data(), built.vid.data());
    EXPECT_EQ(ar.offset.data(), built.offset.data());
    EXPECT_EQ(ar.target.data(), built.target.data());
    EXPECT_EQ(ar.target_out_degree.data(), built.target_out_degree.data());
    EXPECT_NE(ar.emeta.data(), built.emeta.data());
    EXPECT_EQ(fz.index(), g->index());

    // The projected edge column holds the projected values.
    g->for_all_local([&](const tg::vertex_id& v, const meta_graph::record_type& rec) {
      const auto view = fz.local_find(v);
      ASSERT_TRUE(view);
      for (std::size_t j = 0; j < rec.adj.size(); ++j) {
        EXPECT_EQ(view->adj[j].edge_meta, rec.adj[j].edge_meta);
      }
    });

    // freeze(plan) picks the plan's projections up automatically.
    hist unused;
    auto plan = tripoll::survey(*g)
                    .project_vertex(tripoll::drop_projection{})
                    .project_edge(cb::timestamp_projection{})
                    .add(closure_cb{}, unused);
    auto fz2 = tg::freeze(plan);
    static_assert(
        std::is_same_v<decltype(fz2), tg::frozen_dodgr<tg::none, std::uint64_t>>);
    EXPECT_EQ(fz2.local_num_edges(), fz.local_num_edges());

    // The built graph surveys as it stands, exactly like its identity freeze.
    const auto survey_of = [](auto& graph) {
      hist h;
      return tripoll::survey(graph).add(closure_cb{}, h).run();
    };
    const auto direct = survey_of(*g);
    const auto frozen = survey_of(full);
    EXPECT_GT(direct.total.triangles_found, 0u);
    EXPECT_EQ(direct.total.triangles_found, frozen.total.triangles_found);
    EXPECT_EQ(direct.total.total.volume_bytes, frozen.total.total.volume_bytes);
    EXPECT_EQ(direct.total.total.messages, frozen.total.total.messages);

    // Both frozen graphs outlive the built graph they share columns with.
    g.reset();
    const auto after = survey_of(full);
    EXPECT_EQ(after.total.triangles_found, frozen.total.triangles_found);
    EXPECT_EQ(after.total.total.volume_bytes, frozen.total.total.volume_bytes);
    EXPECT_EQ(after.total.total.messages, frozen.total.total.messages);
    EXPECT_EQ(survey_of(fz).total.triangles_found, frozen.total.triangles_found);
  });
}

// --- survey equivalence matrix ------------------------------------------------------

class FrozenMatrix
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

namespace {

/// One fused closure+count survey's observables, compared across storage forms.
struct matrix_run {
  tripoll::plan_result<2> res;
  std::uint64_t count = 0;   ///< the count callback's global total
  std::uint64_t digest = 0;  ///< the closure histogram's global digest
};

template <typename Plan>
matrix_run run_matrix_plan(tc::communicator& c, Plan&& plan, survey_mode mode) {
  hist h;
  cb::count_context n;
  matrix_run r;
  r.res = plan.add(closure_cb{}, h).add(cb::count_callback{}, n).run({mode});
  r.count = n.global_count(c);
  r.digest = c.all_reduce_sum(hist_digest(h));
  return r;
}

void require_same_survey(const matrix_run& a, const matrix_run& b, const std::string& what) {
  require(a.res.total.triangles_found == b.res.total.triangles_found,
          what + ": triangle counts differ");
  require(a.res.total.triangles_found > 0, what + ": graph has no triangles");
  require(a.count == b.count, what + ": callback counts differ");
  require(a.res.total.total.volume_bytes == b.res.total.total.volume_bytes,
          what + ": survey volume differs");
  require(a.res.total.total.messages == b.res.total.total.messages,
          what + ": survey message count differs");
  require(a.res.total.pulls_granted == b.res.total.pulls_granted,
          what + ": pull grants differ");
  require(a.res.total.wedge_candidates == b.res.total.wedge_candidates,
          what + ": wedge candidates differ");
  require(a.digest == b.digest, what + ": closure histograms differ");
}

}  // namespace

TEST_P(FrozenMatrix, SurveyIdenticalAcrossStorageForms) {
  const auto [backend, ordering, mode] = GetParam();
  (void)backend;
  EXPECT_NO_THROW(run_ranks(3, [ordering = ordering, mode = mode](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, ordering);

    // Sender-side projection per message over the identity-frozen graph.
    auto full = tg::freeze(g);
    const auto sender = run_matrix_plan(c,
                                        tripoll::survey(full)
                                            .project_vertex(tripoll::drop_projection{})
                                            .project_edge(cb::timestamp_projection{}),
                                        mode);

    // Projection pushed down into the arenas at freeze time; the survey
    // itself runs identity projections over pre-projected data.
    auto fz = tg::freeze(g, tripoll::drop_projection{}, cb::timestamp_projection{});
    const auto frozen = run_matrix_plan(c, tripoll::survey(fz), mode);
    require_same_survey(sender, frozen, "push-down freeze vs sender-side projection");

    // The streaming overlay over the same frozen graph, with an empty delta.
    tg::overlay ov(fz);
    const auto overlay = run_matrix_plan(c, tripoll::survey(ov), mode);
    require_same_survey(frozen, overlay, "overlay vs frozen");
  }));
}

TEST_P(FrozenMatrix, SnapshotRoundTripReproducesSurvey) {
  const auto [backend, ordering, mode] = GetParam();
  (void)backend;
  const std::string prefix = fresh_prefix("matrix");
  EXPECT_NO_THROW(run_ranks(
      3, [ordering = ordering, mode = mode, prefix = prefix](tc::communicator& c) {
        meta_graph g(c);
        build_meta_graph(c, g, ordering);
        auto fz = tg::freeze(g);
        (void)tg::save_snapshot(fz, prefix);

        auto loaded = tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix);
        require(loaded.ordering() == ordering, "ordering policy not preserved");
        require(loaded.local_num_vertices() == fz.local_num_vertices(),
                "vertex count not preserved");
        require(loaded.local_num_edges() == fz.local_num_edges(),
                "edge count not preserved");

        hist a, b;
        auto ra = tripoll::survey(fz).add(closure_cb{}, a).run({mode});
        auto rb = tripoll::survey(loaded).add(closure_cb{}, b).run({mode});
        require(ra.total.triangles_found == rb.total.triangles_found,
                "triangles differ after snapshot round-trip");
        require(ra.total.total.volume_bytes == rb.total.total.volume_bytes,
                "volume differs after snapshot round-trip");
        require(c.all_reduce_sum(hist_digest(a)) == c.all_reduce_sum(hist_digest(b)),
                "histograms differ after snapshot round-trip");
      }));
  remove_snapshot(prefix, 3);
}

namespace {

std::string matrix_name(
    const ::testing::TestParamInfo<
        std::tuple<tc::backend_kind, tg::ordering_policy, survey_mode>>& info) {
  const auto backend = std::get<0>(info.param);
  const auto ordering = std::get<1>(info.param);
  const auto mode = std::get<2>(info.param);
  return std::string(backend == tc::backend_kind::inproc ? "inproc" : "socket") + "_" +
         tg::ordering_name(ordering) + "_" +
         (mode == survey_mode::push_pull ? "push_pull" : "push_only");
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrozenMatrix,
    ::testing::Combine(::testing::Values(tc::backend_kind::inproc,
                                         tc::backend_kind::socket),
                       ::testing::Values(tg::ordering_policy::degree,
                                         tg::ordering_policy::degeneracy),
                       ::testing::Values(survey_mode::push_pull,
                                         survey_mode::push_only)),
    matrix_name);

// --- snapshot details ---------------------------------------------------------------

TEST(Snapshot, FilesAreBitIdenticalAcrossSaves) {
  const std::string p1 = fresh_prefix("bits_a");
  const std::string p2 = fresh_prefix("bits_b");
  tc::runtime::run(2, [&](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degeneracy);
    auto fz = tg::freeze(g);
    (void)tg::save_snapshot(fz, p1);
    (void)tg::save_snapshot(fz, p2);
  });
  for (int r = 0; r < 2; ++r) {
    const auto f1 = tg::mapped_file::map(tg::snapshot_rank_path(p1, r));
    const auto f2 = tg::mapped_file::map(tg::snapshot_rank_path(p2, r));
    ASSERT_EQ(f1->size(), f2->size());
    ASSERT_GT(f1->size(), 0u);
    EXPECT_TRUE(f1->is_mapped());
    EXPECT_EQ(std::memcmp(f1->data(), f2->data(), f1->size()), 0);
  }
  remove_snapshot(p1, 2);
  remove_snapshot(p2, 2);
}

TEST(Snapshot, LoadedArenasViewTheMapping) {
  const std::string prefix = fresh_prefix("mmap");
  tc::runtime::run(1, [&](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);
    const auto bytes = tg::save_snapshot(fz, prefix);
    const std::string path = tg::snapshot_rank_path(prefix, 0);
    EXPECT_EQ(bytes, std::filesystem::file_size(path));

    auto loaded = tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix);
    // Column contents identical to the freshly frozen arenas.
    const auto& a = fz.arenas();
    const auto& b = loaded.arenas();
    ASSERT_EQ(a.target.size(), b.target.size());
    EXPECT_EQ(std::memcmp(a.target.data(), b.target.data(), a.target.bytes()), 0);
    EXPECT_EQ(std::memcmp(a.offset.data(), b.offset.data(), a.offset.bytes()), 0);
    EXPECT_EQ(std::memcmp(a.vmeta.data(), b.vmeta.data(), a.vmeta.bytes()), 0);

    // Served in place, not copied: every column sits as far from `vid` in
    // memory as its section sits from section 0 in the file.
    const auto sections = tg::snapshot_sections(path);
    const auto distance = [&](const void* p) {
      return static_cast<std::uint64_t>(static_cast<const std::byte*>(p) -
                                        reinterpret_cast<const std::byte*>(b.vid.data()));
    };
    const auto in_file = [&](std::size_t sec) {
      return sections[sec].offset - sections[0].offset;
    };
    EXPECT_EQ(distance(b.degree.data()), in_file(1));
    EXPECT_EQ(distance(b.order_rank.data()), in_file(2));
    EXPECT_EQ(distance(b.offset.data()), in_file(3));
    EXPECT_EQ(distance(b.vmeta.data()), in_file(4));
    EXPECT_EQ(distance(b.target.data()), in_file(5));
    EXPECT_EQ(distance(b.target_rank.data()), in_file(6));
    EXPECT_EQ(distance(b.target_out_degree.data()), in_file(7));
    EXPECT_EQ(distance(b.emeta.data()), in_file(8));
    EXPECT_EQ(distance(b.target_vmeta.data()), in_file(9));
  });
  remove_snapshot(prefix, 1);
}

TEST(Snapshot, MismatchesAreRejected) {
  const std::string prefix = fresh_prefix("reject");
  tc::runtime::run(2, [&](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);
    (void)tg::save_snapshot(fz, prefix);
  });
  // Missing file.
  tc::runtime::run(1, [&](tc::communicator& c) {
    EXPECT_THROW(((void)tg::load_snapshot<std::uint64_t, std::uint64_t>(
                     c, prefix + ".does_not_exist")),
                 std::runtime_error);
    // Wrong rank count (saved with 2): partition-shaped, must refuse.
    EXPECT_THROW(((void)tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix)),
                 std::runtime_error);
  });
  // Wrong metadata layout (saved 8/8 bytes, none/none expects 0/0).
  tc::runtime::run(2, [&](tc::communicator& c) {
    EXPECT_THROW(((void)tg::load_snapshot<tg::none, tg::none>(c, prefix)),
                 std::runtime_error);
  });
  remove_snapshot(prefix, 2);
}

TEST(Snapshot, SocketRanksSaveAndLoadAcrossBackends) {
  // Save from forked socket ranks, reload under inproc (and vice versa):
  // snapshot bytes are backend-independent.
  const std::string prefix = fresh_prefix("xbackend");
  std::uint64_t inproc_triangles = 0;
  tc::runtime::run(3, [&](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degeneracy);
    auto fz = tg::freeze(g);
    (void)tg::save_snapshot(fz, prefix);
    cb::count_context ctx;
    (void)cb::plan_for(fz, cb::count_callback{}, ctx).run({});
    if (c.rank0()) inproc_triangles = ctx.global_count(c);
    else (void)ctx.global_count(c);
  });
  ASSERT_GT(inproc_triangles, 0u);

  // Forked socket ranks mmap the inproc-written files.
  EXPECT_NO_THROW(tc::runtime::run_socket_local(
      3, [prefix, inproc_triangles](tc::communicator& c) {
        auto loaded = tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix);
        cb::count_context ctx;
        (void)cb::plan_for(loaded, cb::count_callback{}, ctx).run({});
        require(ctx.global_count(c) == inproc_triangles,
                "socket-loaded snapshot changed the triangle count");
      }));
  remove_snapshot(prefix, 3);
}

// --- parallel freeze --------------------------------------------------------

namespace {

/// Byte-compare every column of two arena bundles.
template <typename Arenas>
void expect_arenas_identical(const Arenas& a, const Arenas& b, const char* tag) {
  const auto col = [&](const auto& x, const auto& y, const char* name) {
    ASSERT_EQ(x.size(), y.size()) << tag << " " << name;
    if (x.bytes() > 0) {
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.bytes()), 0) << tag << " " << name;
    }
  };
  col(a.vid, b.vid, "vid");
  col(a.degree, b.degree, "degree");
  col(a.order_rank, b.order_rank, "order_rank");
  col(a.offset, b.offset, "offset");
  col(a.vmeta, b.vmeta, "vmeta");
  col(a.target, b.target, "target");
  col(a.target_rank, b.target_rank, "target_rank");
  col(a.target_out_degree, b.target_out_degree, "target_out_degree");
  col(a.emeta, b.emeta, "emeta");
  col(a.target_vmeta, b.target_vmeta, "target_vmeta");
}

}  // namespace

TEST(ParallelFreeze, ByteIdenticalArenasAcrossThreadCounts) {
  tc::runtime::run(2, [](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degeneracy);
    tg::freeze_options serial_opts;
    serial_opts.threads = 1;
    auto base = tg::freeze(g, serial_opts);
    for (const int threads : {2, 4, 8}) {
      tg::freeze_options o;
      o.threads = threads;
      auto fz = tg::freeze(g, o);
      expect_arenas_identical(base.arenas(), fz.arenas(),
                              ("threads=" + std::to_string(threads)).c_str());
    }
  });
}

TEST(ParallelFreeze, CompactArenasIdenticalAcrossThreadCounts) {
  // overlay::compact() fills its columns through freeze()'s builder, so
  // the re-frozen arenas must not move with freeze_options::threads either.
  tc::runtime::run(2, [](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degeneracy);
    auto fz = tg::freeze(g);
    tg::overlay ov(fz);
    tg::overlay<std::uint64_t, std::uint64_t>::edge_batch batch;
    if (c.rank0()) {
      for (tg::vertex_id u = 0; u < 40; ++u) batch.push_back({u, u + 103, edge_ts(u, u + 103)});
    }
    (void)ov.ingest(batch, [](tg::vertex_id v) { return vertex_label(v); });
    (void)ov.expire_before(20000);
    tg::freeze_options serial_opts;
    serial_opts.threads = 1;
    const auto base = ov.compact(serial_opts);
    ASSERT_GT(base.local_num_edges(), 0u);
    tg::freeze_options o;
    o.threads = 4;
    const auto par = ov.compact(o);
    expect_arenas_identical(base.arenas(), par.arenas(), "compact threads=4");
  });
}

// --- compressed snapshots ---------------------------------------------------

TEST(Snapshot, CompressedRoundTripMatchesRawAndShrinks) {
  const std::string praw = fresh_prefix("rt_raw");
  const std::string pcmp = fresh_prefix("rt_cmp");
  tc::runtime::run(2, [&](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degeneracy);
    auto fz = tg::freeze(g);
    const auto raw_bytes = tg::save_snapshot(fz, praw);
    const auto cmp_bytes =
        tg::save_snapshot(fz, pcmp, tg::snapshot_codec::compressed);
    EXPECT_LT(cmp_bytes, raw_bytes);

    auto from_raw = tg::load_snapshot<std::uint64_t, std::uint64_t>(c, praw);
    auto from_cmp = tg::load_snapshot<std::uint64_t, std::uint64_t>(c, pcmp);
    expect_arenas_identical(from_raw.arenas(), from_cmp.arenas(), "raw-vs-compressed");

    hist a, b;
    auto ra = tripoll::survey(from_raw).add(closure_cb{}, a).run({});
    auto rb = tripoll::survey(from_cmp).add(closure_cb{}, b).run({});
    EXPECT_EQ(ra.total.triangles_found, rb.total.triangles_found);
    EXPECT_EQ(ra.total.total.volume_bytes, rb.total.total.volume_bytes);
    EXPECT_EQ(ra.total.total.messages, rb.total.total.messages);
    EXPECT_EQ(c.all_reduce_sum(hist_digest(a)), c.all_reduce_sum(hist_digest(b)));
  });
  remove_snapshot(praw, 2);
  remove_snapshot(pcmp, 2);
}

TEST(Snapshot, SectionTableReportsCodecs) {
  const std::string praw = fresh_prefix("sect_raw");
  const std::string pcmp = fresh_prefix("sect_cmp");
  tc::runtime::run(1, [&](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);
    (void)tg::save_snapshot(fz, praw);
    (void)tg::save_snapshot(fz, pcmp, tg::snapshot_codec::compressed);
  });
  const auto raw = tg::snapshot_sections(tg::snapshot_rank_path(praw, 0));
  ASSERT_EQ(raw.size(), 10u);
  for (const auto& s : raw) EXPECT_EQ(s.codec, 0u);  // raw save: every row raw

  const auto cmp = tg::snapshot_sections(tg::snapshot_rank_path(pcmp, 0));
  ASSERT_EQ(cmp.size(), 10u);
  // Structural u64 columns are varint-packed, metadata stays raw.
  const std::vector<std::uint64_t> want_codec = {1, 1, 1, 2, 0, 3, 1, 1, 0, 0};
  for (std::size_t i = 0; i < cmp.size(); ++i) {
    EXPECT_EQ(cmp[i].codec, want_codec[i]) << "section " << i;
    if (cmp[i].codec != 0) {
      EXPECT_LE(cmp[i].stored_bytes, raw[i].stored_bytes);
    }
  }
  remove_snapshot(praw, 1);
  remove_snapshot(pcmp, 1);
}

// --- corruption rejection ----------------------------------------------------

namespace {

/// Write `bytes` over the file at `path`.
void rewrite_file(const std::string& path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

[[nodiscard]] std::vector<char> slurp_file(const std::string& path) {
  const auto mapped = tg::mapped_file::map(path);
  return {reinterpret_cast<const char*>(mapped->data()),
          reinterpret_cast<const char*>(mapped->data()) + mapped->size()};
}

void expect_load_rejected(const std::string& prefix, const char* what) {
  tc::runtime::run(1, [&](tc::communicator& c) {
    EXPECT_THROW(((void)tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix)),
                 std::runtime_error)
        << what;
  });
}

}  // namespace

TEST(Snapshot, TruncationSweepAtEverySectionBoundaryIsRejected) {
  // Both layouts: a file cut at any section start (or mid-header) must be
  // refused -- load_snapshot may never trust a section length into reading
  // past the mapping.
  for (const auto codec : {tg::snapshot_codec::raw, tg::snapshot_codec::compressed}) {
    const std::string prefix =
        fresh_prefix(codec == tg::snapshot_codec::raw ? "trunc_raw" : "trunc_cmp");
    tc::runtime::run(1, [&](tc::communicator& c) {
      meta_graph g(c);
      build_meta_graph(c, g, tg::ordering_policy::degree);
      auto fz = tg::freeze(g);
      (void)tg::save_snapshot(fz, prefix, codec);
    });
    const std::string path = tg::snapshot_rank_path(prefix, 0);
    const auto pristine = slurp_file(path);
    const auto sections = tg::snapshot_sections(path);
    std::vector<std::size_t> cuts = {0, 8, 64, 127};
    for (const auto& s : sections) cuts.push_back(static_cast<std::size_t>(s.offset));
    for (const std::size_t cut : cuts) {
      // Zero-sized trailing sections can sit exactly at the file end; a
      // "cut" there is the whole file, not a truncation.
      if (cut >= pristine.size()) continue;
      rewrite_file(path, {pristine.begin(), pristine.begin() + cut});
      expect_load_rejected(prefix, ("truncated at " + std::to_string(cut)).c_str());
    }
    rewrite_file(path, pristine);
    tc::runtime::run(1, [&](tc::communicator& c) {  // restored file loads again
      EXPECT_NO_THROW(((void)tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix)));
    });
    remove_snapshot(prefix, 1);
  }
}

TEST(Snapshot, FlipSweepAtEverySectionIsRejected) {
  // Every section is checksummed whatever its codec (raw metadata and raw
  // structural columns included), so flipping the first byte of ANY
  // non-empty section -- or of the section table, the magic or the version
  // word -- must be caught.
  for (const auto codec : {tg::snapshot_codec::raw, tg::snapshot_codec::compressed}) {
    const std::string prefix =
        fresh_prefix(codec == tg::snapshot_codec::raw ? "flip_raw" : "flip_cmp");
    tc::runtime::run(1, [&](tc::communicator& c) {
      meta_graph g(c);
      build_meta_graph(c, g, tg::ordering_policy::degree);
      auto fz = tg::freeze(g);
      (void)tg::save_snapshot(fz, prefix, codec);
    });
    const std::string path = tg::snapshot_rank_path(prefix, 0);
    const auto pristine = slurp_file(path);
    const auto sections = tg::snapshot_sections(path);
    std::vector<std::size_t> flip_at = {0, 8, 128};  // magic, version, section table
    for (const auto& s : sections) {
      if (s.stored_bytes > 0) flip_at.push_back(static_cast<std::size_t>(s.offset));
    }
    for (const std::size_t at : flip_at) {
      ASSERT_LT(at, pristine.size());
      auto corrupt = pristine;
      corrupt[at] = static_cast<char>(corrupt[at] ^ 0x5A);
      rewrite_file(path, corrupt);
      expect_load_rejected(prefix, ("flipped byte " + std::to_string(at)).c_str());
    }
    rewrite_file(path, pristine);
    remove_snapshot(prefix, 1);
  }
}

TEST(Snapshot, LegacyVersionsAreRejected) {
  // Only version 4 is readable; files claiming the retired v1/v2/v3 layouts
  // must be refused by name, both by the loader and by the header peek.
  const std::string prefix = fresh_prefix("legacy");
  tc::runtime::run(1, [&](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);
    (void)tg::save_snapshot(fz, prefix);
  });
  const std::string path = tg::snapshot_rank_path(prefix, 0);
  const auto pristine = slurp_file(path);
  const auto expect_version_error = [](const auto& fn, const std::string& what) {
    try {
      fn();
      ADD_FAILURE() << what << ": accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported snapshot version"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  for (const char legacy : {'\x01', '\x02', '\x03'}) {
    auto old = pristine;
    old[8] = legacy;  // header word 1 (little-endian), upper bytes stay 0
    rewrite_file(path, old);
    const std::string tag = "version " + std::to_string(static_cast<int>(legacy));
    expect_version_error([&] { (void)tg::peek_snapshot(path); }, "peek " + tag);
    tc::runtime::run(1, [&](tc::communicator& c) {
      expect_version_error(
          [&] { (void)tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix); },
          "load " + tag);
    });
  }
  remove_snapshot(prefix, 1);
}

// --- crafted (checksum-valid) hostile files ----------------------------------

namespace {

constexpr std::size_t kNumSections = 10;
constexpr std::size_t kTableOffset = 128;

std::uint64_t test_fnv1a(const char* p, std::size_t n) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<std::uint8_t>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t read_u64(const std::vector<char>& b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[off + i])) << (8 * i);
  }
  return v;
}

void store_u64(std::vector<char>& b, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

void put_u64(std::vector<char>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_varint(std::vector<char>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Rebuild a snapshot with section `idx` replaced by `bytes` under codec
/// tag `codec`, recomputing the section checksum, the table checksum and
/// the header file size.  The result is a well-formed hostile file -- every
/// integrity check passes, so only semantic validation can reject it.
void rewrite_section(const std::string& path, std::size_t idx, std::uint64_t codec,
                        std::vector<char> bytes) {
  const auto pristine = slurp_file(path);
  const auto sections = tg::snapshot_sections(path);
  ASSERT_EQ(sections.size(), kNumSections);
  std::vector<std::vector<char>> stored(kNumSections);
  std::vector<std::uint64_t> codecs(kNumSections);
  for (std::size_t i = 0; i < kNumSections; ++i) {
    const auto& s = sections[i];
    stored[i].assign(pristine.begin() + static_cast<std::ptrdiff_t>(s.offset),
                     pristine.begin() + static_cast<std::ptrdiff_t>(s.offset + s.stored_bytes));
    codecs[i] = s.codec;
  }
  stored[idx] = std::move(bytes);
  codecs[idx] = codec;

  std::vector<char> out(pristine.begin(), pristine.begin() + kTableOffset);
  out.resize(kTableOffset + kNumSections * 24, 0);
  for (std::size_t i = 0; i < kNumSections; ++i) {
    store_u64(out, kTableOffset + i * 24, codecs[i]);
    store_u64(out, kTableOffset + i * 24 + 8, stored[i].size());
    store_u64(out, kTableOffset + i * 24 + 16,
              test_fnv1a(stored[i].data(), stored[i].size()));
  }
  store_u64(out, 80, test_fnv1a(out.data() + kTableOffset, kNumSections * 24));
  for (std::size_t i = 0; i < kNumSections; ++i) {
    out.resize((out.size() + 63) / 64 * 64, 0);
    out.insert(out.end(), stored[i].begin(), stored[i].end());
  }
  store_u64(out, 72, out.size());
  rewrite_file(path, out);
}

}  // namespace

TEST(Snapshot, CraftedOffsetColumnsAreRejected) {
  // A crafted file carries valid checksums over hostile offset values --
  // a raw-tagged section with arbitrary interiors, or varint gaps whose
  // running sum wraps past 2^64 back to m.  The offsets become WRITE bounds
  // for the vertex-delta target decode and read bounds for every survey,
  // so interior values must be validated, not just front/back -- on raw
  // saves as much as on compressed ones.
  for (const auto codec : {tg::snapshot_codec::raw, tg::snapshot_codec::compressed}) {
    const std::string prefix = fresh_prefix(
        codec == tg::snapshot_codec::raw ? "evil_offsets_raw" : "evil_offsets_cmp");
    std::vector<std::uint64_t> good_offsets;
    tc::runtime::run(1, [&](tc::communicator& c) {
      meta_graph g(c);
      build_meta_graph(c, g, tg::ordering_policy::degree);
      auto fz = tg::freeze(g);
      (void)tg::save_snapshot(fz, prefix, codec);
      good_offsets.assign(fz.arenas().offset.data(),
                          fz.arenas().offset.data() + fz.arenas().offset.size());
    });
    const std::string path = tg::snapshot_rank_path(prefix, 0);
    const auto pristine = slurp_file(path);
    const std::uint64_t n = read_u64(pristine, 40);
    const std::uint64_t m = read_u64(pristine, 48);
    ASSERT_GE(n, 2u);
    ASSERT_EQ(good_offsets.size(), n + 1);

    // Sanity for the rewrite helper itself: a raw-tagged section 3 holding
    // the TRUE offsets must load (else the rejections below prove nothing).
    std::vector<char> raw_good;
    for (const auto v : good_offsets) put_u64(raw_good, v);
    rewrite_section(path, 3, 0, raw_good);
    tc::runtime::run(1, [&](tc::communicator& c) {
      EXPECT_NO_THROW(((void)tg::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix)));
    });

    // Raw-tagged offsets: front/back pass the spot check, interiors point
    // past m (would drive an out-of-bounds heap write while decoding targets).
    std::vector<char> raw_evil;
    put_u64(raw_evil, 0);
    for (std::uint64_t i = 1; i < n; ++i) put_u64(raw_evil, m + 1000);
    put_u64(raw_evil, m);
    rewrite_file(path, pristine);
    rewrite_section(path, 3, 0, raw_evil);
    expect_load_rejected(prefix, "raw offsets past m");

    // One hostile interior among true values: offset[1] = 2^40.
    std::vector<char> raw_spike;
    for (std::uint64_t i = 0; i <= n; ++i) {
      put_u64(raw_spike, i == 1 ? std::uint64_t{1} << 40 : good_offsets[i]);
    }
    rewrite_file(path, pristine);
    rewrite_section(path, 3, 0, raw_spike);
    expect_load_rejected(prefix, "raw offset[1] = 2^40");

    // Gap-coded offsets wrapping 2^64: 0, 2^64-1, then +m+1 wraps back to m.
    std::vector<char> gap_evil;
    put_varint(gap_evil, 0);
    put_varint(gap_evil, ~std::uint64_t{0});
    put_varint(gap_evil, m + 1);
    for (std::uint64_t i = 3; i <= n; ++i) put_varint(gap_evil, 0);
    rewrite_file(path, pristine);
    rewrite_section(path, 3, 2, gap_evil);
    expect_load_rejected(prefix, "gap sum wraps past 2^64");

    remove_snapshot(prefix, 1);
  }
}

TEST(Snapshot, NonRawCodecOnViewServedSectionsIsRejected) {
  // Metadata arenas (sections 4, 8, 9) are served as zero-copy views of their logical size; a crafted file tagging them with
  // a varint codec would make the view read past the stored bytes.
  const std::string prefix = fresh_prefix("evil_viewtag");
  tc::runtime::run(1, [&](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);
    (void)tg::save_snapshot(fz, prefix, tg::snapshot_codec::compressed);
  });
  {
    const std::string path = tg::snapshot_rank_path(prefix, 0);
    const auto pristine = slurp_file(path);
    const auto sections = tg::snapshot_sections(path);
    for (const std::size_t sec : {std::size_t{4}, std::size_t{8}, std::size_t{9}}) {
      ASSERT_GT(sections[sec].stored_bytes, 0u) << "section " << sec;
      std::vector<char> same(
          pristine.begin() + static_cast<std::ptrdiff_t>(sections[sec].offset),
          pristine.begin() + static_cast<std::ptrdiff_t>(sections[sec].offset +
                                                         sections[sec].stored_bytes));
      rewrite_file(path, pristine);
      rewrite_section(path, sec, 1 /* varint_delta */, std::move(same));
      expect_load_rejected(prefix,
                           ("non-raw tag on section " + std::to_string(sec)).c_str());
    }
  }
  remove_snapshot(prefix, 1);
}

// --- analytics over frozen storage ---------------------------------------------------

TEST(Frozen, AnalyticsAgreeOnFrozenAndOverlay) {
  tc::runtime::run(2, [](tc::communicator& c) {
    meta_graph g(c);
    build_meta_graph(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);
    tg::overlay ov(fz);

    const auto a = tripoll::analytics::clustering_coefficients(fz);
    const auto b = tripoll::analytics::clustering_coefficients(ov);
    EXPECT_EQ(a.triangles, b.triangles);
    EXPECT_EQ(a.total_wedges, b.total_wedges);
    EXPECT_DOUBLE_EQ(a.transitivity, b.transitivity);
    EXPECT_DOUBLE_EQ(a.average_local_cc, b.average_local_cc);
  });
}
