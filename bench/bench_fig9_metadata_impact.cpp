// bench_fig9_metadata_impact -- reproduces Fig. 9 (effect of nontrivial
// metadata on the weak scaling of Push-Pull and Push-Only), extended with
// the survey-plan wire-projection and multi-survey-fusion cases.
//
// Part 1 (the paper's figure): the Fig. 5 weak-scaling R-MAT runs twice --
// once with dummy metadata and a counting callback, once with each vertex's
// degree as metadata and a callback counting log2-degree triples.  Expected
// shape: the metadata+callback variant cuts throughput by a factor just
// under 2 across sizes, for both engines, without changing the scaling
// shape.
//
// Part 2 (plan API): a rich-metadata R-MAT graph (64-byte vertex profiles,
// 64-byte edge interaction records) surveyed through
//   * an identity-projection plan (full structs on the wire),
//   * a projected plan (edge -> 8-byte timestamp, vertex -> nothing),
//   * three single-callback projected runs, and
//   * one fused 3-callback projected plan,
// reporting survey volume_bytes for each.  `--json <path>` writes the cases
// for the gate table in tools/check_bench_regression.py (`--gates`), whose
// rows assert the acceptance ratios (projection >= 2x volume reduction at
// identical triangle counts; fused traffic within 1.1x of a single run);
// `--quick` shrinks sizes for CI and skips the weak-scaling tables.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "serial/wire_guard.hpp"
#include "gen/distribute.hpp"
#include "gen/presets.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "serial/hash.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;

namespace {

// --- Part 1: the paper's weak-scaling figure -------------------------------------

/// Work rate |W+|/(N*t) for the dummy-metadata counting survey.
double plain_rate(int ranks, std::uint32_t scale, tripoll::survey_mode mode) {
  tripoll::survey_result result;
  graph::graph_census census{};
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::rmat_generator rmat(gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, 777, true});
    graph::graph_builder<graph::none, graph::none> builder(c);
    gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
      const auto e = rmat.edge_at(k);
      builder.add_edge(e.u, e.v);
    });
    gen::plain_graph g(c);
    builder.build_into(g);
    census = g.census();
    auto fz = graph::freeze(g);
    cb::count_context ctx;
    result = cb::plan_for(fz, cb::count_callback{}, ctx).run({mode}).slice(0);
  });
  return static_cast<double>(census.wedge_checks) /
         (static_cast<double>(ranks) * result.total.seconds);
}

/// Collective: this rank's (vertex, degree) pairs of the metadata-free
/// graph over `rmat`'s edges, so degree-derived vertex metadata can be
/// contributed to the metadata build.
std::vector<std::pair<graph::vertex_id, std::uint64_t>> local_degrees(
    comm::communicator& c, const gen::rmat_generator& rmat) {
  graph::graph_builder<graph::none, graph::none> builder(c);
  gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
    const auto e = rmat.edge_at(k);
    builder.add_edge(e.u, e.v);
  });
  graph::dodgr<graph::none, graph::none> g(c);
  builder.build_into(g);
  std::vector<std::pair<graph::vertex_id, std::uint64_t>> out;
  g.for_all_local(
      [&](const graph::vertex_id& v, const auto& rec) { out.emplace_back(v, rec.degree); });
  return out;
}

/// Work rate with per-vertex degree metadata and the log2-degree-triple
/// counting callback (Sec. 5.9).  Deliberately identity-projected: this is
/// the paper's "nontrivial metadata on the wire" data point.
double metadata_rate(int ranks, std::uint32_t scale, tripoll::survey_mode mode) {
  tripoll::survey_result result;
  graph::graph_census census{};
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::rmat_generator rmat(gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, 777, true});
    // First pass: the degrees (the metadata the paper attaches in this
    // experiment), then the metadata build.
    graph::graph_builder<std::uint64_t, graph::none> builder(c);
    gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
      const auto e = rmat.edge_at(k);
      builder.add_edge(e.u, e.v);
    });
    for (const auto& [v, degree] : local_degrees(c, rmat)) builder.add_vertex_meta(v, degree);
    graph::dodgr<std::uint64_t, graph::none> g(c);
    builder.build_into(g);
    census = g.census();
    auto fz = graph::freeze(g);
    comm::counting_set<cb::degree_triple> counters(c);
    cb::degree_triple_context ctx{&counters};
    result = tripoll::survey(fz)
                 .add(cb::degree_triple_callback{}, ctx)  // identity projections
                 .run({mode})
                 .slice(0);
    counters.finalize();
  });
  return static_cast<double>(census.wedge_checks) /
         (static_cast<double>(ranks) * result.total.seconds);
}

// --- Part 2: plan projection / fusion cases --------------------------------------

/// 64-byte vertex profile: the survey reads none of it (or at most one
/// field), so identity projection is maximally wasteful.
struct rich_vertex_meta {
  std::uint64_t degree = 0;
  std::uint64_t join_time = 0;
  char name[48] = {};
};
static_assert(sizeof(rich_vertex_meta) == 64);
TRIPOLL_WIRE_ASSERT(rich_vertex_meta, degree, join_time, name);

/// 64-byte edge interaction record; the closure analysis reads only the
/// 8-byte timestamp.
struct rich_edge_meta {
  std::uint64_t timestamp = 0;
  std::uint64_t weight = 0;
  char tag[48] = {};
};
static_assert(sizeof(rich_edge_meta) == 64);
TRIPOLL_WIRE_ASSERT(rich_edge_meta, timestamp, weight, tag);

using rich_graph = graph::dodgr<rich_vertex_meta, rich_edge_meta>;
using rich_frozen = graph::frozen_dodgr<rich_vertex_meta, rich_edge_meta>;

std::uint64_t edge_ts(graph::vertex_id u, graph::vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 1000000;
}

/// Local (no-RPC) closure histogram so the measured volume is pure
/// traversal traffic, not counting-set chatter.
struct closure_hist_ctx {
  std::map<cb::closure_bin, std::uint64_t> bins;

  closure_hist_ctx fork() const { return {}; }
  void join(closure_hist_ctx&& slice) {
    for (const auto& [bin, n] : slice.bins) bins[bin] += n;
  }
};

void bin_closure(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                 closure_hist_ctx& ctx) {
  ++ctx.bins[cb::closure_bin_of(a, b, c)];
}

/// Identity-projection closure callback: digs the timestamp out of the
/// full 64-byte struct that crossed the wire.
struct rich_closure_cb {
  template <typename View>
  void operator()(const View& v, closure_hist_ctx& ctx) const {
    bin_closure(v.meta_pq.timestamp, v.meta_pr.timestamp, v.meta_qr.timestamp, ctx);
  }
};

/// Projected closure callback: the 8-byte timestamp IS the edge metadata.
struct ts_closure_cb {
  template <typename View>
  void operator()(const View& v, closure_hist_ctx& ctx) const {
    bin_closure(static_cast<std::uint64_t>(v.meta_pq),
                static_cast<std::uint64_t>(v.meta_pr),
                static_cast<std::uint64_t>(v.meta_qr), ctx);
  }
};

/// Stateful bool-returning filter on the projected timestamps.
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

struct plan_case {
  std::uint64_t volume_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t triangles = 0;
  double seconds = 0.0;
  std::uint64_t checksum = 0;  ///< additive closure-histogram digest (0 if n/a)
};

/// Additive histogram digest: sum over bins of count * hash(bin), summed
/// across ranks -- deterministic and comparable between runs.
std::uint64_t hist_checksum(const closure_hist_ctx& ctx) {
  std::uint64_t sum = 0;
  for (const auto& [bin, n] : ctx.bins) {
    sum += n * tripoll::serial::splitmix64((std::uint64_t{bin.first} << 32) | bin.second);
  }
  return sum;
}

void build_rich_graph(comm::communicator& c, rich_graph& g, std::uint32_t scale) {
  graph::graph_builder<rich_vertex_meta, rich_edge_meta> builder(c);
  gen::rmat_generator rmat(gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, 777, true});
  // Vertex metadata is a pure function of the id and the degree.
  for (const auto& [v, degree] : local_degrees(c, rmat)) {
    rich_vertex_meta m;
    m.degree = degree;
    m.join_time = tripoll::serial::splitmix64(v) % 1000000;
    std::snprintf(m.name, sizeof m.name, "user-%llu", (unsigned long long)v);
    builder.add_vertex_meta(v, m);
  }
  gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
    const auto e = rmat.edge_at(k);
    rich_edge_meta em;
    em.timestamp = edge_ts(e.u, e.v);
    em.weight = (e.u + e.v) % 97;
    std::snprintf(em.tag, sizeof em.tag, "interaction-%llu",
                  (unsigned long long)(em.timestamp % 1000));
    builder.add_edge(e.u, e.v, em);
  });
  builder.build_into(g);
}

/// Run one plan case over a freshly built (and frozen) rich graph.
template <typename RunFn>
plan_case run_case(int ranks, std::uint32_t scale, RunFn&& survey_fn) {
  plan_case out;
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    rich_graph g(c);
    build_rich_graph(c, g, scale);
    auto fz = graph::freeze(g);
    closure_hist_ctx hist;
    const auto [result, used_hist] = survey_fn(fz, hist);
    const auto checksum = c.all_reduce_sum(used_hist ? hist_checksum(hist) : 0);
    if (c.rank0()) {
      out.volume_bytes = result.total.volume_bytes;
      out.messages = result.total.messages;
      out.triangles = result.triangles_found;
      out.seconds = result.total.seconds;
      out.checksum = checksum;
    }
  });
  return out;
}

void print_case(const char* name, const plan_case& pc) {
  std::printf("%-18s %12s %10s tri %10llu  %.3fs\n", name,
              tripoll::bench::human_bytes(pc.volume_bytes).c_str(),
              tripoll::bench::human_count(pc.messages).c_str(),
              (unsigned long long)pc.triangles, pc.seconds);
}

void write_json(const char* path, const std::map<std::string, plan_case>& cases,
                std::uint32_t scale, int ranks) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"pr4_plan_cases\": {\n");
  std::size_t i = 0;
  for (const auto& [name, pc] : cases) {
    std::fprintf(f,
                 "    \"%s\": {\"volume_bytes\": %llu, \"messages\": %llu, "
                 "\"triangles\": %llu, \"seconds\": %.6f, \"checksum\": %llu}%s\n",
                 name.c_str(), (unsigned long long)pc.volume_bytes,
                 (unsigned long long)pc.messages, (unsigned long long)pc.triangles,
                 pc.seconds, (unsigned long long)pc.checksum,
                 ++i == cases.size() ? "" : ",");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"params\": {\"scale\": %u, \"ranks\": %d, "
               "\"vertex_meta_bytes\": 64, \"edge_meta_bytes\": 64}\n}\n",
               scale, ranks);
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = tripoll::bench::quick_mode(argc, argv);
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '-') {
        std::fprintf(stderr, "--json needs an output path\n");
        return 2;
      }
      json_path = argv[++i];
    }
  }

  const int delta = tripoll::bench::scale_delta_from_env(0);
  const int max_ranks = tripoll::bench::max_ranks_from_env(16);
  const auto base_scale = static_cast<std::uint32_t>(std::max(8, 13 + delta));

  if (!quick) {
    tripoll::bench::print_header(
        "Fig. 9: metadata impact on weak scaling (rates = |W+|/(N*t))", "Fig. 9");
    std::printf("%6s %7s | %14s %14s %7s | %14s %14s %7s\n", "ranks", "scale",
                "PP dummy", "PP degree-md", "ratio", "PO dummy", "PO degree-md", "ratio");
    tripoll::bench::print_rule(104);

    for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
      std::uint32_t scale = base_scale;
      for (int r = ranks; r > 1; r /= 2) ++scale;

      const double pp_plain = plain_rate(ranks, scale, tripoll::survey_mode::push_pull);
      const double pp_meta = metadata_rate(ranks, scale, tripoll::survey_mode::push_pull);
      const double po_plain = plain_rate(ranks, scale, tripoll::survey_mode::push_only);
      const double po_meta = metadata_rate(ranks, scale, tripoll::survey_mode::push_only);

      std::printf("%6d %7u | %14s %14s %6.2fx | %14s %14s %6.2fx\n", ranks, scale,
                  tripoll::bench::human_count(static_cast<std::uint64_t>(pp_plain)).c_str(),
                  tripoll::bench::human_count(static_cast<std::uint64_t>(pp_meta)).c_str(),
                  pp_meta > 0 ? pp_plain / pp_meta : 0.0,
                  tripoll::bench::human_count(static_cast<std::uint64_t>(po_plain)).c_str(),
                  tripoll::bench::human_count(static_cast<std::uint64_t>(po_meta)).c_str(),
                  po_meta > 0 ? po_plain / po_meta : 0.0);
    }
    std::printf("\n(PP = Push-Pull, PO = Push-Only; paper: metadata+callback cuts "
                "throughput by a factor just under 2 for both)\n");
  }

  // --- Part 2: plan projection / fusion -----------------------------------------
  const int plan_ranks = quick ? 4 : std::min(8, max_ranks);
  const std::uint32_t plan_scale =
      quick ? 10u : static_cast<std::uint32_t>(std::max(8, 12 + delta));
  const auto mode = tripoll::survey_mode::push_pull;

  tripoll::bench::print_header(
      "Survey-plan wire projection & fusion (rich 64B/64B metadata R-MAT)",
      "PR 4 acceptance; extends Fig. 9");
  std::printf("scale %u, %d ranks, push_pull; volume = survey remote bytes\n\n",
              plan_scale, plan_ranks);

  std::map<std::string, plan_case> cases;

  cases["identity_closure"] = run_case(plan_ranks, plan_scale, [&](rich_frozen& g,
                                                                   closure_hist_ctx& h) {
    auto r = tripoll::survey(g).add(rich_closure_cb{}, h).run({mode});
    return std::pair(r.slice(0), true);
  });
  cases["projected_closure"] =
      run_case(plan_ranks, plan_scale, [&](rich_frozen& g, closure_hist_ctx& h) {
        auto r = tripoll::survey(g)
                     .project_vertex(tripoll::drop_projection{})
                     .project_edge([](const rich_edge_meta& e) { return e.timestamp; })
                     .add(ts_closure_cb{}, h)
                     .run({mode});
        return std::pair(r.slice(0), true);
      });
  cases["single_count"] =
      run_case(plan_ranks, plan_scale, [&](rich_frozen& g, closure_hist_ctx&) {
        cb::count_context ctx;
        auto r = tripoll::survey(g)
                     .project_vertex(tripoll::drop_projection{})
                     .project_edge([](const rich_edge_meta& e) { return e.timestamp; })
                     .add(cb::count_callback{}, ctx)
                     .run({mode});
        return std::pair(r.slice(0), false);
      });
  cases["single_closure"] = cases["projected_closure"];
  cases["single_hot_filter"] =
      run_case(plan_ranks, plan_scale, [&](rich_frozen& g, closure_hist_ctx&) {
        cb::count_context hot;
        auto r = tripoll::survey(g)
                     .project_vertex(tripoll::drop_projection{})
                     .project_edge([](const rich_edge_meta& e) { return e.timestamp; })
                     .add(hot_filter_cb{500000}, hot)
                     .run({mode});
        return std::pair(r.slice(0), false);
      });
  cases["fused3"] = run_case(plan_ranks, plan_scale, [&](rich_frozen& g,
                                                         closure_hist_ctx& h) {
    cb::count_context ctx;
    cb::count_context hot;
    auto r = tripoll::survey(g)
                 .project_vertex(tripoll::drop_projection{})
                 .project_edge([](const rich_edge_meta& e) { return e.timestamp; })
                 .add(cb::count_callback{}, ctx)
                 .add(ts_closure_cb{}, h)
                 .add(hot_filter_cb{500000}, hot)
                 .run({mode});
    return std::pair(r.slice(1), true);
  });

  for (const auto& [name, pc] : cases) print_case(name.c_str(), pc);

  const auto& ident = cases["identity_closure"];
  const auto& proj = cases["projected_closure"];
  const auto& fused = cases["fused3"];
  const std::uint64_t single_max =
      std::max({cases["single_count"].volume_bytes, cases["single_closure"].volume_bytes,
                cases["single_hot_filter"].volume_bytes});
  const std::uint64_t sequential_sum = cases["single_count"].volume_bytes +
                                       cases["single_closure"].volume_bytes +
                                       cases["single_hot_filter"].volume_bytes;
  std::printf("\nprojection volume reduction : %.2fx (identity / projected)\n",
              proj.volume_bytes ? static_cast<double>(ident.volume_bytes) /
                                      static_cast<double>(proj.volume_bytes)
                                : 0.0);
  std::printf("fused vs worst single run   : %.3fx\n",
              single_max ? static_cast<double>(fused.volume_bytes) /
                               static_cast<double>(single_max)
                         : 0.0);
  std::printf("3 sequential runs vs fused  : %.2fx\n",
              fused.volume_bytes ? static_cast<double>(sequential_sum) /
                                       static_cast<double>(fused.volume_bytes)
                                 : 0.0);
  std::printf("triangles identical         : %s; closure digests identical: %s\n",
              (ident.triangles == proj.triangles && proj.triangles == fused.triangles)
                  ? "yes"
                  : "NO",
              (ident.checksum == proj.checksum && proj.checksum == fused.checksum)
                  ? "yes"
                  : "NO");

  if (json_path != nullptr) write_json(json_path, cases, plan_scale, plan_ranks);
  return 0;
}
