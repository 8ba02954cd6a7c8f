// Tests for the intra-rank parallel survey traversal (core/survey.hpp +
// core/parallel.hpp).
//
// The load-bearing property is BIT-IDENTITY: triangle counts, per-callback
// fire counts, volume_bytes and messages must not move across
//   threads x backend x ordering x mode x storage form,
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
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/presets.hpp"
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
/// deterministic ER slab.
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
  fp.list_batches = r.total.list_batches;
  return fp;
}

template <typename Graph>
run_fingerprint count_run(tc::communicator& c, Graph& g, survey_options opts) {
  cb::count_context ctx;
  const auto r = cb::plan_for(g, cb::count_callback{}, ctx).run(opts);
  return fingerprint_of(r, ctx.global_count(c));
}

std::string fp_str(const run_fingerprint& fp) {
  return "tri=" + std::to_string(fp.triangles) + " fires=" + std::to_string(fp.fires) +
         " vol=" + std::to_string(fp.volume_bytes) +
         " msg=" + std::to_string(fp.messages) +
         " pb=" + std::to_string(fp.push_batches) +
         " wc=" + std::to_string(fp.wedge_candidates) +
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
    require_sweep([&](int t) { return count_run(c, ov, {mode, t}); }, base, "overlay");

    // ...and after one batch, against the compacted graph of the result.
    (void)ov.ingest(delta_batch<tg::none>(c, [](auto, auto) { return tg::none{}; }));
    auto compacted = ov.compact();
    const auto after = count_run(c, compacted, {mode, 1});
    require(after.triangles > base.triangles, "the ingest batch must close triangles");
    require_sweep([&](int t) { return count_run(c, ov, {mode, t}); }, after,
                  "overlay after ingest");
  });
}

INSTANTIATE_TEST_SUITE_P(
    OrderingsAndModes, ParallelMatrix,
    ::testing::Combine(::testing::Values(tg::ordering_policy::degree,
                                         tg::ordering_policy::degeneracy),
                       ::testing::Values(survey_mode::push_only,
                                         survey_mode::push_pull)));

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
    require_sweep([&](int t) { return reduced(ov, t); }, reduced(compacted, 1),
                  "add_reduced");
  });
}

// --- counting-set plans across threads ------------------------------------------------

namespace {

/// The quick web preset with its FQDN string labels.
tg::frozen_dodgr<std::string, tg::none> quick_web(tc::communicator& c) {
  tripoll::gen::web_graph g(c);
  tripoll::gen::build_web_graph(c, g, tripoll::gen::standard_suite(-4)[3].web);
  return tg::freeze(g);
}

/// Ships the FQDN survey's projection but only tallies: a survey with the
/// same wire traffic and no counting set.
struct fqdn_tally_callback {
  using vertex_projection = tripoll::identity_projection;
  using edge_projection = tripoll::drop_projection;

  template <typename View>
  void operator()(const View& /*view*/, cb::count_context& ctx) const {
    ++ctx.triangles;
  }
};

/// Rank cache small enough that every phase-end join evicts.
constexpr std::size_t kTinyCache = 8;

}  // namespace

TEST(ParallelSurvey, CountingSetPlansMatchAcrossThreads) {
  // Counting-set callbacks fire on every worker thread into detached
  // tallies that the owning thread joins into the set at phase end.  Run
  // them across thread counts and demand identical histograms, tallies and
  // fire counts.  (This is also the TSan workload: reduced slices +
  // counting-set tallies + cache evictions + threads.)
  tc::runtime::run(2, [](tc::communicator& c) {
    tg::dodgr<tg::none, tg::none> g(c);
    build_graph(c, g, tg::ordering_policy::degeneracy);
    auto fz = tg::freeze(g);

    std::uint64_t base_digest = 0;
    std::uint64_t base_fires = 0;
    for (const int threads : {1, 2, 4}) {
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

    // The paper's FQDN 3-tuple survey on string labels, evicting throughout.
    auto web = quick_web(c);
    std::map<cb::fqdn_tuple, std::uint64_t> base_hist;
    std::uint64_t base_distinct = 0;
    std::uint64_t base_invocations = 0;
    for (const int threads : {1, 2, 4}) {
      tc::counting_set<cb::fqdn_tuple> counters(c, kTinyCache);
      cb::fqdn_tuple_context ctx{&counters};
      const auto r = cb::plan_for(web, cb::fqdn_tuple_callback{}, ctx)
                         .run({survey_mode::push_pull, threads});
      counters.finalize();
      const auto hist = counters.gather_all();
      const auto distinct = c.all_reduce_sum(ctx.distinct_fqdn_triangles);
      require(r.invocations[0] == r.total.triangles_found, "FQDN callback skipped a fire");
      if (threads == 1) {
        base_hist = hist;
        base_distinct = distinct;
        base_invocations = r.invocations[0];
        require(hist.size() > kTinyCache, "FQDN survey never filled the cache");
        std::uint64_t total = 0;
        for (const auto& [tuple, n] : hist) total += n;
        require(total == distinct, "FQDN histogram total != distinct tally");
      } else {
        const std::string at = " at threads=" + std::to_string(threads);
        require(hist == base_hist, "FQDN histogram moved" + at);
        require(distinct == base_distinct, "distinct FQDN tally moved" + at);
        require(r.invocations[0] == base_invocations, "FQDN fire count moved" + at);
      }
    }
  });
}

TEST(ParallelSurvey, CountingSetTrafficIsCountedInsideRun) {
  // The phase-end joins evict through the communicator inside run(), so
  // the survey's volume carries the set's traffic and finalize() ships at
  // most the keys left in the rank cache.
  tc::runtime::run(2, [](tc::communicator& c) {
    auto web = quick_web(c);
    for (const int threads : {1, 2}) {
      const survey_options opts{survey_mode::push_pull, threads};
      tc::counting_set<cb::fqdn_tuple> counters(c, kTinyCache);
      cb::fqdn_tuple_context ctx{&counters};
      const auto with_set = cb::plan_for(web, cb::fqdn_tuple_callback{}, ctx).run(opts);
      const auto before = c.local_stats();
      counters.finalize();
      const auto finalize_messages = (c.local_stats() - before).messages_sent;
      require(finalize_messages <= kTinyCache,
              "finalize() sent " + std::to_string(finalize_messages) +
                  " messages; the joins left their evictions behind");

      cb::count_context tally;
      const auto tally_only =
          cb::plan_for_reduced(web, fqdn_tally_callback{}, tally, cb::count_reduce{})
              .run(opts);
      require(with_set.total.triangles_found == tally_only.total.triangles_found,
              "both surveys close the same triangles");
      require(with_set.total.total.volume_bytes > tally_only.total.total.volume_bytes,
              "the counting set's traffic is missing from the survey volume");
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
          require(fp_ov == fp_serial,
                  "socket overlay threads=" + std::to_string(threads) + " diverged: " +
                      fp_str(fp_ov) + " vs " + fp_str(fp_serial));
        });
  }
}
