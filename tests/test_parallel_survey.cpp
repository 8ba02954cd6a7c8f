// Tests for the intra-rank parallel survey traversal (core/survey.hpp +
// core/parallel.hpp) and the hub/tail bitmap intersection dispatch
// (core/intersect.hpp + the freeze-time bitmap arenas).
//
// The load-bearing property is BIT-IDENTITY: triangle counts, per-callback
// fire counts, volume_bytes and messages must not move across
//   threads x backend x ordering x mode x storage form x hub threshold,
// where the storage forms are the frozen CSR and the streaming overlay
// (before and after an ingest batch).
// Wall clock is the only thing allowed to change (benched separately in
// bench_parallel_traversal).
//
// Socket ranks are forked child processes, so assertions there run INSIDE
// the ranks via throw-based require(); the parent turns child exit status
// into test failures.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/intersect.hpp"
#include "core/survey.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "graph/dodgr.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"
#include "graph/overlay.hpp"
#include "serial/hash.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
namespace cb = tripoll::callbacks;

using tripoll::reduce_scope;
using tripoll::survey_mode;
using tripoll::survey_options;
using tripoll::survey_result;

namespace {

/// In-rank check that works from forked socket ranks: throw, don't EXPECT.
void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error("parallel survey check failed: " + what);
}

/// A skewed test graph: a K10 hub core every rank touches plus a
/// deterministic ER slab.  Dense low ids keep freeze-time bitmap rows past
/// the density guard, so low hub thresholds really do build bitmaps.
void build_graph(tc::communicator& c, tg::dodgr<tg::none, tg::none>& g,
                 tg::ordering_policy ordering) {
  tg::graph_builder<tg::none, tg::none> builder(c, ordering);
  if (c.rank0()) {
    for (tg::vertex_id u = 0; u < 10; ++u) {
      for (tg::vertex_id v = u + 1; v < 10; ++v) builder.add_edge(u, v);
    }
    // Star edges off the core: hubs with degree >> the clique's.
    for (tg::vertex_id v = 10; v < 60; ++v) builder.add_edge(v % 4, v);
  }
  tripoll::gen::erdos_renyi_generator er(120, 900, 4321);
  for (std::uint64_t k = static_cast<std::uint64_t>(c.rank()); k < er.num_edges();
       k += static_cast<std::uint64_t>(c.size())) {
    const auto e = er.edge_at(k);
    if (e.u == e.v) continue;
    builder.add_edge(e.u, e.v);
  }
  builder.build_into(g);
}

/// Everything that must be bit-identical across thread counts.
struct run_fingerprint {
  std::uint64_t triangles = 0;
  std::uint64_t fires = 0;
  std::uint64_t volume_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t push_batches = 0;
  std::uint64_t wedge_candidates = 0;
  std::uint64_t bitmap_batches = 0;
  std::uint64_t list_batches = 0;

  bool operator==(const run_fingerprint&) const = default;
};

/// `triangles` is the callback-side global count (or digest) of the run.
run_fingerprint fingerprint_of(const tripoll::plan_result<1>& r, std::uint64_t triangles) {
  run_fingerprint fp;
  fp.triangles = triangles;
  fp.fires = r.invocations[0];
  fp.volume_bytes = r.total.total.volume_bytes;
  fp.messages = r.total.total.messages;
  fp.push_batches = r.total.push_batches;
  fp.wedge_candidates = r.total.wedge_candidates;
  fp.bitmap_batches = r.total.bitmap_batches;
  fp.list_batches = r.total.list_batches;
  return fp;
}

template <typename Graph>
run_fingerprint count_run(tc::communicator& c, Graph& g, survey_options opts) {
  cb::count_context ctx;
  const auto r = cb::plan_for(g, cb::count_callback{}, ctx).run(opts);
  return fingerprint_of(r, ctx.global_count(c));
}

/// The fingerprint an overlay run must match: the overlay keeps no hub
/// bitmap rows, so every batch a frozen run closed by bitmap probe it closes
/// with the list kernels.  Nothing else may differ.
run_fingerprint without_bitmaps(run_fingerprint fp) {
  fp.list_batches += fp.bitmap_batches;
  fp.bitmap_batches = 0;
  return fp;
}

std::string fp_str(const run_fingerprint& fp) {
  return "tri=" + std::to_string(fp.triangles) + " fires=" + std::to_string(fp.fires) +
         " vol=" + std::to_string(fp.volume_bytes) +
         " msg=" + std::to_string(fp.messages) +
         " pb=" + std::to_string(fp.push_batches) +
         " wc=" + std::to_string(fp.wedge_candidates) +
         " bm=" + std::to_string(fp.bitmap_batches) +
         " ls=" + std::to_string(fp.list_batches);
}

/// One ingest batch for the overlay legs: new vertices hanging off the K10
/// core (closing triangles with it) plus chords through the ER slab, some
/// of them already stored.  Edge metadata comes from `meta(u, v)`.
template <typename EMeta, typename MetaFn>
std::vector<tg::overlay_edge<EMeta>> delta_batch(tc::communicator& c, MetaFn&& meta) {
  std::vector<tg::overlay_edge<EMeta>> batch;
  if (c.rank0()) {
    const auto add = [&](tg::vertex_id u, tg::vertex_id v) {
      batch.push_back({u, v, meta(u, v)});
    };
    for (tg::vertex_id v = 200; v < 230; ++v) {
      add(v % 10, v);
      add((v + 1) % 10, v);
    }
    for (tg::vertex_id u = 10; u < 60; ++u) add(u, u + 13);
  }
  return batch;
}

/// Run `fp_at(threads)` at threads {1,2,4,8} and require `want` each time.
template <typename FpAt>
void require_sweep(FpAt&& fp_at, const run_fingerprint& want, const std::string& what) {
  for (const int threads : {1, 2, 4, 8}) {
    const auto fp = fp_at(threads);
    require(fp == want, what + " threads=" + std::to_string(threads) +
                            " diverged: " + fp_str(fp) + " vs " + fp_str(want));
  }
}

}  // namespace

// --- thread-count identity matrix ---------------------------------------------------

class ParallelMatrix
    : public ::testing::TestWithParam<std::tuple<tg::ordering_policy, survey_mode>> {};

TEST_P(ParallelMatrix, ThreadSweepIsBitIdentical) {
  const auto [ordering, mode] = GetParam();
  tc::runtime::run(3, [ordering, mode](tc::communicator& c) {
    tg::dodgr<tg::none, tg::none> g(c);
    build_graph(c, g, ordering);
    auto fz = tg::freeze(g);
    const auto base = count_run(c, fz, {mode, 1});
    require(base.triangles > 0, "graph must contain triangles");
    require_sweep([&](int t) { return count_run(c, fz, {mode, t}); }, base, "frozen");

    // The overlay over the frozen graph, before any ingest...
    tg::overlay ov(fz);
    require_sweep([&](int t) { return count_run(c, ov, {mode, t}); }, without_bitmaps(base),
                  "overlay");

    // ...and after one batch, against the compacted graph of the result.
    (void)ov.ingest(delta_batch<tg::none>(c, [](auto, auto) { return tg::none{}; }));
    auto compacted = ov.compact();
    const auto after = count_run(c, compacted, {mode, 1});
    require(after.triangles > base.triangles, "the ingest batch must close triangles");
    require_sweep([&](int t) { return count_run(c, ov, {mode, t}); },
                  without_bitmaps(after), "overlay after ingest");
  });
}

INSTANTIATE_TEST_SUITE_P(
    OrderingsAndModes, ParallelMatrix,
    ::testing::Combine(::testing::Values(tg::ordering_policy::degree,
                                         tg::ordering_policy::degeneracy),
                       ::testing::Values(survey_mode::push_only,
                                         survey_mode::push_pull)));

// --- hub threshold sweep ------------------------------------------------------------

TEST(ParallelSurvey, HubThresholdSweepIsEquivalent) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<tg::none, tg::none> g(c);
    build_graph(c, g, tg::ordering_policy::degree);

    run_fingerprint base;
    bool have_base = false;
    bool any_bitmaps = false;
    for (const std::uint64_t threshold : {std::uint64_t{1}, std::uint64_t{4},
                                          std::uint64_t{64},
                                          std::uint64_t{1} << 30}) {
      tg::freeze_options fo;
      fo.hub_degree_threshold = threshold;
      auto fz = tg::freeze(g, fo);
      for (const int threads : {1, 4}) {
        const auto fp = count_run(c, fz, {survey_mode::push_pull, threads});
        if (!have_base) {
          base = fp;
          have_base = true;
        } else {
          // The kernel mix moves with the threshold; nothing else may.
          auto norm = fp;
          norm.bitmap_batches = base.bitmap_batches;
          norm.list_batches = base.list_batches;
          require(norm == base, "threshold=" + std::to_string(threshold) +
                                    " threads=" + std::to_string(threads) +
                                    " diverged: " + fp_str(fp));
          require(fp.bitmap_batches + fp.list_batches ==
                      base.bitmap_batches + base.list_batches,
                  "total closed batches across thresholds");
        }
        if (fp.bitmap_batches > 0) any_bitmaps = true;
        // Thread count must not move the kernel mix at a fixed threshold.
        const auto fp1 = count_run(c, fz, {survey_mode::push_pull, 1});
        require(fp1.bitmap_batches == fp.bitmap_batches &&
                    fp1.list_batches == fp.list_batches,
                "kernel mix moved with thread count");
      }
    }
    require(any_bitmaps, "no threshold produced a single bitmap batch");

    // Bitmaps disabled: the dispatch must fall back to lists everywhere.
    tg::freeze_options off;
    off.build_hub_bitmaps = false;
    auto fz_off = tg::freeze(g, off);
    require(!fz_off.has_hub_bitmaps(), "build_hub_bitmaps=false left rows behind");
    const auto fp_off = count_run(c, fz_off, {survey_mode::push_pull, 4});
    require(fp_off.bitmap_batches == 0, "bitmap batches without bitmap rows");
    require(fp_off.triangles == base.triangles && fp_off.fires == base.fires &&
                fp_off.volume_bytes == base.volume_bytes &&
                fp_off.messages == base.messages,
            "bitmap on/off changed results");
  });
}

// --- kernel identity on adversarial inputs -------------------------------------------

namespace {

std::vector<std::size_t> probe_hits_dispatch(const tripoll::core::bitmap_view& bm,
                                             const std::vector<std::uint64_t>& ids) {
  std::vector<std::size_t> hits;
  tripoll::core::bitmap_probe(bm, reinterpret_cast<const std::byte*>(ids.data()),
                              sizeof(std::uint64_t), ids.size(),
                              [&](std::size_t i) { hits.push_back(i); });
  return hits;
}

std::vector<std::size_t> probe_hits_scalar(const tripoll::core::bitmap_view& bm,
                                           const std::vector<std::uint64_t>& ids) {
  std::vector<std::size_t> hits;
  tripoll::core::bitmap_probe_scalar(bm, reinterpret_cast<const std::byte*>(ids.data()),
                                     sizeof(std::uint64_t), ids.size(),
                                     [&](std::size_t i) { hits.push_back(i); });
  return hits;
}

}  // namespace

TEST(BitmapKernels, DispatchMatchesScalarOnAdversarialLists) {
  // A row over [1000, 1000 + 4*64) with a skewed membership pattern.
  std::vector<std::uint64_t> words(4, 0);
  tripoll::core::bitmap_view bm{words.data(), words.size(), 1000};
  for (std::uint64_t off = 0; off < 256; ++off) {
    if (off % 3 == 0 || off < 10 || off >= 250) {
      words[off >> 6] |= std::uint64_t{1} << (off & 63U);
    }
  }

  std::vector<std::vector<std::uint64_t>> cases;
  cases.push_back({});                         // empty candidate list
  cases.push_back({0, 1, 2, 999});             // all below base (wraps huge)
  cases.push_back({5000, 1u << 20, ~0ull});    // all past the row
  std::vector<std::uint64_t> skewed;           // heavy repeats + boundary ids
  for (int rep = 0; rep < 7; ++rep) {
    for (std::uint64_t id : {1000ull, 1001ull, 1063ull, 1064ull, 1255ull, 1256ull,
                             999ull, 1300ull}) {
      skewed.push_back(id);
    }
  }
  cases.push_back(skewed);
  std::vector<std::uint64_t> dense;            // every id in and around the row
  for (std::uint64_t id = 990; id < 1270; ++id) dense.push_back(id);
  cases.push_back(dense);
  std::vector<std::uint64_t> disjoint;         // interleaves misses only
  for (std::uint64_t id = 0; id < 64; ++id) disjoint.push_back(id * 2);
  cases.push_back(disjoint);

  for (std::size_t k = 0; k < cases.size(); ++k) {
    EXPECT_EQ(probe_hits_dispatch(bm, cases[k]), probe_hits_scalar(bm, cases[k]))
        << "case " << k;
  }

  // Hits against an expected oracle on the dense case.
  const auto hits = probe_hits_scalar(bm, dense);
  for (std::size_t i = 0, h = 0; i < dense.size(); ++i) {
    const bool member = bm.test(dense[i]);
    if (member) {
      ASSERT_LT(h, hits.size());
      EXPECT_EQ(hits[h++], i);
    }
  }

  // An empty row never reports a hit, whatever the candidates.
  tripoll::core::bitmap_view empty{};
  for (const auto& c : cases) {
    EXPECT_TRUE(probe_hits_dispatch(empty, c).empty());
  }
}

TEST(BitmapKernels, AndPopcountMatchesScalarFold) {
  std::vector<std::uint64_t> a, b;
  for (std::uint64_t i = 0; i < 37; ++i) {
    a.push_back(tripoll::serial::splitmix64(i));
    b.push_back(tripoll::serial::splitmix64(i ^ 0xABCD));
  }
  std::uint64_t expect = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect += static_cast<std::uint64_t>(__builtin_popcountll(a[i] & b[i]));
  }
  EXPECT_EQ(tripoll::core::bitmap_and_popcount(a.data(), b.data(), a.size()), expect);
  EXPECT_EQ(tripoll::core::bitmap_and_popcount(a.data(), b.data(), 0), 0u);
}

// --- plan reductions across threads --------------------------------------------------

namespace {

/// Stateful per-thread context: tallies fires and a content-dependent sum,
/// so a worker firing into the wrong slice (or a lost merge) changes it.
struct digest_context {
  std::uint64_t fires = 0;
  std::uint64_t digest = 0;
};

struct digest_callback {
  using vertex_projection = tripoll::drop_projection;
  using edge_projection = tripoll::drop_projection;

  template <typename View>
  void operator()(const View& view, digest_context& ctx) const {
    ++ctx.fires;
    ctx.digest += tripoll::serial::splitmix64(view.p) ^
                  tripoll::serial::splitmix64(view.q) ^
                  tripoll::serial::splitmix64(view.r);
  }
};

struct digest_reduce {
  digest_context operator()(const digest_context& x, const digest_context& y) const {
    return digest_context{x.fires + y.fires, x.digest + y.digest};
  }
};

}  // namespace

TEST(ParallelSurvey, ReducedContextsMergeIdentically) {
  tc::runtime::run(3, [](tc::communicator& c) {
    tg::dodgr<tg::none, tg::none> g(c);
    build_graph(c, g, tg::ordering_policy::degree);
    auto fz = tg::freeze(g);

    digest_context base;
    for (const int threads : {1, 2, 4, 8}) {
      digest_context ctx;
      const auto r =
          cb::plan_for_reduced(fz, digest_callback{}, ctx, digest_reduce{})
              .run({survey_mode::push_pull, threads});
      require(r.invocations[0] == c.all_reduce_sum(ctx.fires),
              "invocations vs reduced context fires");
      if (threads == 1) {
        base = ctx;
        require(ctx.fires > 0, "reduced callback never fired");
      } else {
        require(ctx.fires == base.fires && ctx.digest == base.digest,
                "reduced context diverged at threads=" + std::to_string(threads));
      }
    }

    // Global scope: run() returns with the context already all_reduced.
    digest_context global_ctx;
    (void)cb::plan_for_reduced<reduce_scope::global>(fz, digest_callback{}, global_ctx,
                                                     digest_reduce{})
        .run({survey_mode::push_pull, 4});
    require(global_ctx.fires == c.all_reduce_sum(base.fires),
            "global-scope context not all_reduced");

    // count_reduce: the packaged counting context behaves the same way.
    cb::count_context cnt;
    (void)cb::plan_for_reduced<reduce_scope::global>(fz, cb::count_callback{}, cnt,
                                                     cb::count_reduce{})
        .run({survey_mode::push_pull, 8});
    require(cnt.triangles == c.all_reduce_sum(base.fires),
            "global count_reduce mismatch");
  });
}

TEST(ParallelSurvey, OverlayWindowedAndReducedPlansAreBitIdentical) {
  // The overlay's task path (add_reduced) and a windowed closure plan (the
  // streaming read) at every thread count, checked against compact() of
  // the same overlay at one thread.
  tc::runtime::run(3, [](tc::communicator& c) {
    const auto ts = [](tg::vertex_id u, tg::vertex_id v) {
      return tripoll::serial::splitmix64(std::min(u, v) * 1009 + std::max(u, v)) % 1000;
    };
    tg::dodgr<tg::none, tg::none> shape(c);
    build_graph(c, shape, tg::ordering_policy::degree);
    tg::dodgr<tg::none, std::uint64_t> g(c);
    {
      tg::graph_builder<tg::none, std::uint64_t> builder(c, tg::ordering_policy::degree);
      shape.for_all_local([&](const tg::vertex_id& u, const auto& rec) {
        for (const auto& e : rec.adj) builder.add_edge(u, e.target, ts(u, e.target));
      });
      builder.build_into(g);
    }
    auto fz = tg::freeze(g);
    tg::overlay ov(fz);
    (void)ov.ingest(delta_batch<std::uint64_t>(c, ts));
    auto compacted = ov.compact();

    const auto closure = [&](auto& graph, int threads) {
      tc::counting_set<cb::closure_bin> bins(c);
      cb::closure_time_context ctx{&bins};
      const auto r = cb::plan_for(graph, cb::closure_time_callback{}, ctx)
                         .window(200, 900)
                         .run({survey_mode::push_pull, threads});
      bins.finalize();
      std::uint64_t digest = 0;
      bins.for_all_local([&](const cb::closure_bin& bin, std::uint64_t n) {
        digest += tripoll::serial::splitmix64((std::uint64_t{bin.first} << 32) | bin.second) * n;
      });
      return fingerprint_of(r, c.all_reduce_sum(digest));
    };
    const auto reduced = [&](auto& graph, int threads) {
      digest_context ctx;
      const auto r =
          cb::plan_for_reduced<reduce_scope::global>(graph, digest_callback{}, ctx,
                                                     digest_reduce{})
              .run({survey_mode::push_pull, threads});
      return fingerprint_of(r, ctx.digest);
    };

    const auto want_closure = closure(compacted, 1);
    require(want_closure.fires > 0, "windowed closure plan found no triangles");
    require_sweep([&](int t) { return closure(ov, t); }, want_closure, "windowed closure");
    require_sweep([&](int t) { return reduced(ov, t); },
                  without_bitmaps(reduced(compacted, 1)), "add_reduced");
  });
}

// --- fused plans mixing reduced and owning-thread callbacks ---------------------------

TEST(ParallelSurvey, FusedPlanWithCountingSetStaysOnOwningThread) {
  // A plan with any plain .add entry is not parallel-fire capable: the send
  // stages still parallelize but every fire funnels through the main
  // thread, so counting-set callbacks (comm traffic) remain safe.  Run it
  // across thread counts and demand identical histograms.  (This is also
  // the TSan workload: stateful reduced slices + counting set + threads.)
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<tg::none, tg::none> g(c);
    build_graph(c, g, tg::ordering_policy::degeneracy);
    auto fz = tg::freeze(g);

    std::uint64_t base_digest = 0;
    std::uint64_t base_fires = 0;
    for (const int threads : {1, 4}) {
      tc::counting_set<tg::vertex_id> per_vertex(c);
      cb::local_count_context lc{&per_vertex};
      digest_context dg;
      const auto r = tripoll::survey(fz)
                         .add(cb::local_count_callback{}, lc)
                         .add_reduced(digest_callback{}, dg, digest_reduce{})
                         .run({survey_mode::push_pull, threads});
      per_vertex.finalize();
      std::uint64_t digest = 0;
      per_vertex.for_all_local([&](const tg::vertex_id& v, std::uint64_t n) {
        digest += tripoll::serial::splitmix64(v) * n;
      });
      digest = c.all_reduce_sum(digest);
      const auto fires = c.all_reduce_sum(dg.fires);
      require(r.invocations[0] == r.invocations[1], "fused callbacks disagree");
      if (threads == 1) {
        base_digest = digest;
        base_fires = fires;
        require(fires > 0, "fused plan never fired");
      } else {
        require(digest == base_digest, "counting-set histogram moved with threads");
        require(fires == base_fires, "reduced fires moved with threads");
      }
    }
  });
}

// --- socket backend -------------------------------------------------------------------

TEST(ParallelSurvey, SocketBackendThreadSweepIsBitIdentical) {
  for (const int threads : {1, 4}) {
    tc::runtime::run_backend(
        tc::backend_kind::socket, 2, [threads](tc::communicator& c) {
          tg::dodgr<tg::none, tg::none> g(c);
          build_graph(c, g, tg::ordering_policy::degree);
          auto fz = tg::freeze(g);
          const auto fp = count_run(c, fz, {survey_mode::push_pull, threads});
          const auto fp_serial = count_run(c, fz, {survey_mode::push_pull, 1});
          require(fp == fp_serial,
                  "socket threads=" + std::to_string(threads) + " diverged: " +
                      fp_str(fp) + " vs " + fp_str(fp_serial));
          require(fp.triangles > 0, "socket run found no triangles");
          tg::overlay ov(fz);
          const auto fp_ov = count_run(c, ov, {survey_mode::push_pull, threads});
          require(fp_ov == without_bitmaps(fp_serial),
                  "socket overlay threads=" + std::to_string(threads) + " diverged: " +
                      fp_str(fp_ov) + " vs " + fp_str(fp_serial));
        });
  }
}
