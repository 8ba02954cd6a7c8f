// tripoll_cli -- command-line driver for the TriPoll library.
//
// Subcommands (all run on the distributed runtime):
//   gen <kind> <scale> <out.txt>        generate an edge list (rmat|er|web|temporal)
//   census <edges.txt> [ranks]          |V|, |E|, degrees, |W+| of a file
//   count <edges.txt> [ranks] [mode]    exact triangle count (push_pull|push_only)
//   approx <edges.txt> [samples]        wedge-sampling estimate
//   clustering <edges.txt> [ranks]      transitivity + average local cc
//   closure <edges.txt> [ranks]         closure-time survey (3rd column = timestamp)
//   preset <rmat|temporal|web> [ranks] [delta]
//                                       build an ablation preset and print the
//                                       deterministic survey metrics (used by the
//                                       cross-backend smoke test)
//   plan <rmat|temporal|web> [ranks] [delta]
//                                       attach deterministic rich metadata to a
//                                       preset and run a fused 3-callback
//                                       PROJECTED survey plan (count + closure
//                                       times + stateful hot-triangle filter)
//                                       next to an identity-projection run;
//                                       prints deterministic metrics (also used
//                                       by the cross-backend smoke test)
//   frozen <rmat|temporal|web> [ranks] [delta]
//                                       build a preset, survey it from the
//                                       frozen CSR arenas, a projection-
//                                       pushdown freeze and a streaming
//                                       overlay over the frozen graph; prints
//                                       deterministic metrics for all three
//                                       (cross-backend smoke test)
//   snapshot save <edges.txt> <prefix> [ranks]
//                                       build + freeze a graph from a file and
//                                       write per-rank CSR snapshot files
//                                       (raw columns; --compress: delta/varint)
//   snapshot load <prefix> [ranks] [push_pull|push_only]
//                                       mmap the snapshot (skipping edge
//                                       shuffle and ordering peel) and run the
//                                       counting survey
//   serve <prefix> [ranks]              mmap the snapshot and run the resident
//                                       survey service on --endpoint until
//                                       SHUTDOWN or SIGTERM (docs/SERVICE.md)
//   query <endpoint> <spec>...          submit one plan to a running daemon
//                                       (count | hot[:n] | closure | maxlabel |
//                                       window:t0:t1), fetch stats, or request
//                                       shutdown
//   ingest <prefix> <batch.txt> [ranks] load a snapshot, wrap it in the mutable
//                                       streaming overlay, apply the edge batch
//                                       and survey base+delta (--compact: also
//                                       re-freeze incrementally and save a
//                                       snapshot at <prefix>-compacted); see
//                                       docs/STREAMING.md
//
// Options:
//   --ordering {degree,degeneracy}   DODGr <+ vertex order (graph-building cmds)
//   --backend {inproc,socket}        transport backend (default inproc)
//   --threads {n}                    worker threads per rank for surveys
//                                    (default TRIPOLL_THREADS env or 1)
//
// Backend selection: `--backend socket` runs every rank as a separate OS
// process.  Without TRIPOLL_RANK set, the CLI forks <ranks> local processes
// connected over Unix-domain sockets.  With TRIPOLL_RANK / TRIPOLL_NRANKS /
// TRIPOLL_SOCKET_DIR (or TRIPOLL_HOSTS) set by an external launcher, this
// process joins the rendezvous as that single rank -- launch the CLI once
// per rank:
//
//   for r in 0 1 2 3; do
//     TRIPOLL_RANK=$r TRIPOLL_NRANKS=4 TRIPOLL_SOCKET_DIR=/tmp/tp  (one line)
//       tripoll_cli count /tmp/g.txt 4 --backend socket &
//   done; wait
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>

#include "baselines/approx_tc.hpp"
#include "comm/runtime.hpp"
#include "comm/service_client.hpp"
#include "core/analytics.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/presets.hpp"
#include "gen/rmat.hpp"
#include "gen/temporal.hpp"
#include "gen/web.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/io.hpp"
#include "graph/ordering.hpp"
#include "graph/overlay.hpp"
#include "graph/snapshot.hpp"
#include "serial/hash.hpp"
#include "service/survey_service.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;
namespace svc = tripoll::service;
namespace ta = tripoll::analytics;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  tripoll_cli gen <rmat|er|web|temporal> <scale> <out.txt>\n"
               "  tripoll_cli census <edges.txt> [ranks]\n"
               "  tripoll_cli count <edges.txt> [ranks] [push_pull|push_only]\n"
               "  tripoll_cli approx <edges.txt> [samples]\n"
               "  tripoll_cli clustering <edges.txt> [ranks]\n"
               "  tripoll_cli closure <edges.txt> [ranks]\n"
               "  tripoll_cli preset <rmat|temporal|web> [ranks] [delta]\n"
               "  tripoll_cli plan <rmat|temporal|web> [ranks] [delta]\n"
               "  tripoll_cli frozen <rmat|temporal|web> [ranks] [delta]\n"
               "  tripoll_cli snapshot save <edges.txt> <prefix> [ranks]\n"
               "  tripoll_cli snapshot load <prefix> [ranks] [push_pull|push_only]\n"
               "  tripoll_cli serve <prefix> [ranks]\n"
               "  tripoll_cli query <endpoint> "
               "<count|hot[:n]|closure|maxlabel|window:t0:t1|stats|shutdown>...\n"
               "  tripoll_cli ingest <prefix> <batch.txt> [ranks]\n"
               "options:\n"
               "  --ordering <degree|degeneracy>  DODGr <+ vertex order (default degree)\n"
               "  --backend <inproc|socket>       transport backend (default inproc;\n"
               "                                  socket forks one process per rank, or\n"
               "                                  joins a TRIPOLL_RANK rendezvous)\n"
               "  --threads <n>                   worker threads per rank for surveys,\n"
               "                                  parallel ingest and freeze\n"
               "                                  (default: TRIPOLL_THREADS env or 1;\n"
               "                                  results are identical at any count)\n"
               "  --compress                      snapshot save: write compressed columns\n"
               "                                  (delta/varint-packed)\n"
               "  --meta                          snapshot save: attach the deterministic\n"
               "                                  plan metadata (u64 timestamps + labels)\n"
               "  --endpoint <spec>               serve/query: unix:<path> or tcp:host:port\n"
               "                                  (default unix:/tmp/tripoll-service.sock)\n"
               "  --window <ms>                   serve: admission window (default 5)\n"
               "  --max-batch <n>                 serve: plans fused per round (default 8)\n"
               "  --cache <n>                     serve: LRU result entries; 0 disables\n"
               "                                  (default 64)\n"
               "  --compact                       ingest: re-freeze the overlay after the\n"
               "                                  batch and save <prefix>-compacted\n");
  return 2;
}

/// Flags stripped from argv before positional parsing.
graph::ordering_policy g_ordering = graph::ordering_policy::degree;
comm::backend_kind g_backend = comm::backend_kind::inproc;
int g_threads = 0;  ///< 0 = TRIPOLL_THREADS env, else 1 (docs/THREADING.md)
bool g_compress = false;  ///< snapshot save: compressed column codecs
bool g_meta = false;      ///< snapshot save: attach deterministic plan metadata
bool g_compact = false;   ///< ingest: re-freeze + save after applying the batch
std::string g_endpoint = "unix:/tmp/tripoll-service.sock";
std::uint64_t g_window_ms = 5;   ///< serve: admission window
std::uint64_t g_max_batch = 8;   ///< serve: plans fused per round
std::uint64_t g_cache = 64;      ///< serve: LRU result entries (0 disables)

/// Strip `--flag <x>` / `--flag=<x>` style options from argv; returns false
/// (and prints usage) on an unknown value or missing argument.
bool strip_flags(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--compress") {
      g_compress = true;
      continue;
    }
    if (arg == "--meta") {
      g_meta = true;
      continue;
    }
    if (arg == "--compact") {
      g_compact = true;
      continue;
    }
    std::string name;
    std::string value;
    for (const char* flag : {"--ordering", "--backend", "--threads", "--endpoint",
                             "--window", "--max-batch", "--cache"}) {
      const std::string prefix = std::string(flag) + "=";
      if (arg == flag) {
        if (i + 1 >= argc) return false;
        name = flag;
        value = argv[++i];
        break;
      }
      if (arg.rfind(prefix, 0) == 0) {
        name = flag;
        value = arg.substr(prefix.size());
        break;
      }
    }
    if (name.empty()) {
      argv[out++] = argv[i];
      continue;
    }
    if (name == "--ordering") {
      const auto parsed = graph::parse_ordering(value);
      if (!parsed) {
        std::fprintf(stderr, "unknown ordering '%s'\n", value.c_str());
        return false;
      }
      g_ordering = *parsed;
    } else if (name == "--backend") {
      if (value == "inproc") {
        g_backend = comm::backend_kind::inproc;
      } else if (value == "socket") {
        g_backend = comm::backend_kind::socket;
      } else {
        std::fprintf(stderr, "unknown backend '%s' (inproc|socket)\n", value.c_str());
        return false;
      }
    } else if (name == "--threads") {
      const int n = std::atoi(value.c_str());
      if (n < 1) {
        std::fprintf(stderr, "bad thread count '%s' (want >= 1)\n", value.c_str());
        return false;
      }
      g_threads = n;
    } else if (name == "--endpoint") {
      g_endpoint = value;
    } else if (name == "--window") {
      g_window_ms = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (name == "--max-batch") {
      const long long n = std::atoll(value.c_str());
      if (n < 1) {
        std::fprintf(stderr, "bad batch size '%s' (want >= 1)\n", value.c_str());
        return false;
      }
      g_max_batch = static_cast<std::uint64_t>(n);
    } else if (name == "--cache") {
      g_cache = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    }
  }
  argc = out;
  return true;
}

/// Run `fn` on `ranks` ranks over the selected backend.
template <typename F>
void run_spmd(int ranks, F&& fn) {
  comm::runtime::run_backend(g_backend, ranks, std::forward<F>(fn));
}

int cmd_gen(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string kind = argv[2];
  const auto scale = static_cast<std::uint32_t>(std::atoi(argv[3]));
  const std::string out = argv[4];
  graph::edge_list_writer writer(out);
  std::uint64_t edges = 0;
  if (kind == "rmat") {
    gen::rmat_generator g(gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, 42, true});
    for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
      const auto e = g.edge_at(k);
      writer.write(e.u, e.v);
    }
    edges = g.num_edges();
  } else if (kind == "er") {
    gen::erdos_renyi_generator g(std::uint64_t{1} << scale,
                                 (std::uint64_t{1} << scale) * 16, 42);
    for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
      const auto e = g.edge_at(k);
      writer.write(e.u, e.v);
    }
    edges = g.num_edges();
  } else if (kind == "web") {
    gen::web_params p;
    p.scale = scale;
    gen::web_generator g(p);
    for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
      const auto e = g.edge_at(k);
      writer.write(e.u, e.v);
    }
    edges = g.num_edges();
  } else if (kind == "temporal") {
    gen::temporal_params p;
    p.scale = scale;
    gen::temporal_generator g(p);
    for (std::uint64_t k = 0; k < g.num_edges(); ++k) {
      const auto e = g.edge_at(k);
      writer.write(e.u, e.v, e.timestamp);
    }
    edges = g.num_edges();
  } else {
    return usage();
  }
  std::printf("wrote %llu edges to %s\n", (unsigned long long)edges, out.c_str());
  return 0;
}

template <typename Fn>
int with_plain_graph_from_file(const std::string& path, int ranks, Fn&& fn) {
  run_spmd(ranks, [&](comm::communicator& c) {
    graph::graph_builder<graph::none, graph::none> builder(c, g_ordering);
    graph::read_edge_list(c, path, [&](const graph::parsed_edge& e) {
      builder.add_edge(e.u, e.v);
    });
    graph::dodgr<graph::none, graph::none> g(c);
    builder.build_into(g);
    fn(c, g);
  });
  return 0;
}

using gen::for_preset_edges;

/// Deterministic survey report of one ablation preset: everything printed
/// is a global count or an all-reduced sum, so the output is bit-identical
/// across backends and ranks (wall times deliberately omitted).  The
/// socket-smoke ctest diffs this against the inproc run.
int cmd_preset(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string which = argv[2];
  const int ranks = argc > 3 ? std::atoi(argv[3]) : 4;
  const int delta = argc > 4 ? std::atoi(argv[4]) : -2;
  if (which != "rmat" && which != "temporal" && which != "web") return usage();

  run_spmd(ranks, [&](comm::communicator& c) {
    gen::plain_graph g(c);
    graph::graph_builder<graph::none, graph::none> builder(c, g_ordering);
    for_preset_edges(c, which, delta,
                     [&](graph::vertex_id u, graph::vertex_id v) { builder.add_edge(u, v); });
    builder.build_into(g);
    auto fz = graph::freeze(g);

    cb::count_context ctx;
    const auto r = cb::plan_for(fz, cb::count_callback{}, ctx).run({}).slice(0);
    const auto triangles = ctx.global_count(c);
    const auto census = g.census();
    if (c.rank0()) {
      std::printf("preset %s ranks %d delta %d ordering %s mode push_pull\n",
                  which.c_str(), ranks, delta, graph::ordering_name(g.ordering()));
      std::printf("census |V| %llu |E|+ %llu dmax %llu dmax+ %llu |W+| %llu\n",
                  (unsigned long long)census.num_vertices,
                  (unsigned long long)census.num_directed_edges,
                  (unsigned long long)census.max_degree,
                  (unsigned long long)census.max_out_degree,
                  (unsigned long long)census.wedge_checks);
      std::printf("triangles %llu\n", (unsigned long long)triangles);
      std::printf("phase dry_run volume %llu messages %llu\n",
                  (unsigned long long)r.dry_run.volume_bytes,
                  (unsigned long long)r.dry_run.messages);
      std::printf("phase push volume %llu messages %llu\n",
                  (unsigned long long)r.push.volume_bytes,
                  (unsigned long long)r.push.messages);
      std::printf("phase pull volume %llu messages %llu\n",
                  (unsigned long long)r.pull.volume_bytes,
                  (unsigned long long)r.pull.messages);
      std::printf("totals volume %llu messages %llu pulls %llu push_batches %llu "
                  "candidates %llu filtered %llu\n",
                  (unsigned long long)r.total.volume_bytes,
                  (unsigned long long)r.total.messages,
                  (unsigned long long)r.pulls_granted,
                  (unsigned long long)r.push_batches,
                  (unsigned long long)r.wedge_candidates,
                  (unsigned long long)r.proposals_filtered);
    }
  });
  return 0;
}

/// Deterministic rich metadata for `plan`: an interaction timestamp per
/// edge and a degree-like label per vertex, both pure functions of the
/// vertex ids so every backend and rank assignment computes the same graph.
std::uint64_t plan_edge_ts(graph::vertex_id u, graph::vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 1000000;
}

std::uint64_t plan_vertex_label(graph::vertex_id v) {
  return tripoll::serial::splitmix64(v ^ 0x5EED) % 64;
}

/// Stateful plan callback (carried by value in the plan): counts triangles
/// whose three projected timestamps all clear the threshold; bool return =
/// "did I fire", so its result slice reports the filtered count.
struct hot_triangle_filter {
  std::uint64_t threshold = 0;

  template <typename View>
  bool operator()(const View& v, std::uint64_t& hot) const {
    const auto a = static_cast<std::uint64_t>(v.meta_pq);
    const auto b = static_cast<std::uint64_t>(v.meta_pr);
    const auto t = static_cast<std::uint64_t>(v.meta_qr);
    if (a < threshold || b < threshold || t < threshold) return false;
    ++hot;
    return true;
  }
};

/// Fused projected survey plan over a preset graph with deterministic rich
/// metadata: one traversal drives (1) triangle counting, (2) the closure
/// time histogram and (3) a stateful hot-triangle filter, with vertex
/// metadata projected to its label and edge metadata to its timestamp.  An
/// identity-projection single-callback run prints next to it.  All printed
/// values are global reductions -- bit-identical across backends; the
/// socket-smoke ctest diffs this output against the inproc run.
int cmd_plan(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string which = argv[2];
  const int ranks = argc > 3 ? std::atoi(argv[3]) : 4;
  const int delta = argc > 4 ? std::atoi(argv[4]) : -2;
  if (which != "rmat" && which != "temporal" && which != "web") return usage();

  run_spmd(ranks, [&](comm::communicator& c) {
    graph::dodgr<std::uint64_t, std::uint64_t> g(c);
    graph::graph_builder<std::uint64_t, std::uint64_t> builder(c, g_ordering);
    for_preset_edges(c, which, delta, [&](graph::vertex_id u, graph::vertex_id v) {
      builder.add_edge(u, v, plan_edge_ts(u, v));
    });
    builder.build_into(g);
    // Vertex labels are attached rank-locally after the build (pure
    // function of the id, so no exchange is needed).
    g.for_all_local([](const graph::vertex_id& v, auto& rec) {
      rec.meta = plan_vertex_label(v);
      for (auto& e : rec.adj) e.target_meta = plan_vertex_label(e.target);
    });
    auto fz = graph::freeze(g);

    // Identity-projection single-callback run: full metadata on the wire.
    comm::counting_set<cb::closure_bin> id_bins(c);
    cb::closure_time_context id_ctx{&id_bins};
    const auto identity =
        tripoll::survey(fz).add(cb::closure_time_callback{}, id_ctx).run({}).slice(0);
    id_bins.finalize();

    // Fused 3-callback projected plan: one traversal, minimal wire types.
    comm::counting_set<cb::closure_bin> bins(c);
    cb::count_context count_ctx;
    cb::closure_time_context closure_ctx{&bins};
    std::uint64_t hot_local = 0;
    auto fused = tripoll::survey(fz)
                     .project_vertex(cb::degree_projection{})
                     .project_edge(cb::timestamp_projection{})
                     .add(cb::count_callback{}, count_ctx)
                     .add(cb::closure_time_callback{}, closure_ctx)
                     .add(hot_triangle_filter{500000}, hot_local)
                     .run({});
    bins.finalize();

    // Deterministic digest of the closure histogram (identical on the
    // identity and projected runs if and only if the surveys agree).
    const auto digest = [](const std::map<cb::closure_bin, std::uint64_t>& h) {
      std::uint64_t d = 0;
      for (const auto& [bin, n] : h) {
        d = tripoll::serial::hash_combine(d, (std::uint64_t{bin.first} << 32) | bin.second);
        d = tripoll::serial::hash_combine(d, n);
      }
      return d;
    };
    const auto id_hist = id_bins.gather_all();
    const auto fused_hist = bins.gather_all();
    const auto hot_global = c.all_reduce_sum(hot_local);

    if (c.rank0()) {
      std::printf("plan %s ranks %d delta %d ordering %s mode push_pull\n",
                  which.c_str(), ranks, delta, graph::ordering_name(g.ordering()));
      std::printf("identity  triangles %llu volume %llu messages %llu digest %016llx\n",
                  (unsigned long long)identity.triangles_found,
                  (unsigned long long)identity.total.volume_bytes,
                  (unsigned long long)identity.total.messages,
                  (unsigned long long)digest(id_hist));
      std::printf("projected triangles %llu volume %llu messages %llu digest %016llx\n",
                  (unsigned long long)fused.total.triangles_found,
                  (unsigned long long)fused.total.total.volume_bytes,
                  (unsigned long long)fused.total.total.messages,
                  (unsigned long long)digest(fused_hist));
      std::printf("fused invocations count %llu closure %llu hot %llu (hot global %llu)\n",
                  (unsigned long long)fused.invocations[0],
                  (unsigned long long)fused.invocations[1],
                  (unsigned long long)fused.invocations[2],
                  (unsigned long long)hot_global);
    }
  });
  return 0;
}

/// Print one deterministic survey line (global reductions only).
void print_survey_line(const char* tag, std::uint64_t triangles,
                       const tripoll::survey_result& r) {
  std::printf("%-9s triangles %llu volume %llu messages %llu pulls %llu "
              "candidates %llu\n",
              tag, (unsigned long long)triangles,
              (unsigned long long)r.total.volume_bytes,
              (unsigned long long)r.total.messages,
              (unsigned long long)r.pulls_granted,
              (unsigned long long)r.wedge_candidates);
}

/// Deterministic storage-form comparison over a preset graph: the same
/// survey runs from an identity freeze, a projection-pushdown freeze and a
/// streaming overlay over the identity freeze.  All printed values are
/// global reductions -- bit-identical across backends; the socket-smoke
/// ctest diffs this output.
int cmd_frozen(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string which = argv[2];
  const int ranks = argc > 3 ? std::atoi(argv[3]) : 4;
  const int delta = argc > 4 ? std::atoi(argv[4]) : -2;
  if (which != "rmat" && which != "temporal" && which != "web") return usage();

  run_spmd(ranks, [&](comm::communicator& c) {
    graph::dodgr<std::uint64_t, std::uint64_t> g(c);
    graph::graph_builder<std::uint64_t, std::uint64_t> builder(c, g_ordering);
    for_preset_edges(c, which, delta, [&](graph::vertex_id u, graph::vertex_id v) {
      builder.add_edge(u, v, plan_edge_ts(u, v));
    });
    builder.build_into(g);
    g.for_all_local([](const graph::vertex_id& v, auto& rec) {
      rec.meta = plan_vertex_label(v);
      for (auto& e : rec.adj) e.target_meta = plan_vertex_label(e.target);
    });

    // Identity freeze: same metadata, CSR arenas, per-message projection of
    // edge meta to its timestamp.
    auto fz = graph::freeze(g);
    comm::counting_set<cb::closure_bin> fz_bins(c);
    cb::closure_time_context fz_ctx{&fz_bins};
    const auto fz_res =
        cb::plan_for(fz, cb::closure_time_callback{}, fz_ctx)
            .run({tripoll::survey_mode::push_pull, g_threads})
            .slice(0);
    fz_bins.finalize();

    // Projection push-down: the arenas store only the survey's projection
    // (vertex meta dropped, edge meta -> timestamp).
    auto pd = graph::freeze(g, tripoll::drop_projection{}, cb::timestamp_projection{});
    comm::counting_set<cb::closure_bin> pd_bins(c);
    cb::closure_time_context pd_ctx{&pd_bins};
    const auto pd_res = tripoll::survey(pd)
                            .add(cb::closure_time_callback{}, pd_ctx)
                            .run({tripoll::survey_mode::push_pull, g_threads})
                            .slice(0);
    pd_bins.finalize();

    // Streaming overlay over the identity freeze, with an empty delta.
    graph::overlay ov(fz);
    comm::counting_set<cb::closure_bin> ov_bins(c);
    cb::closure_time_context ov_ctx{&ov_bins};
    const auto ov_res = cb::plan_for(ov, cb::closure_time_callback{}, ov_ctx)
                            .run({tripoll::survey_mode::push_pull, g_threads})
                            .slice(0);
    ov_bins.finalize();

    const auto digest = [](const std::map<cb::closure_bin, std::uint64_t>& h) {
      std::uint64_t d = 0;
      for (const auto& [bin, n] : h) {
        d = tripoll::serial::hash_combine(d, (std::uint64_t{bin.first} << 32) | bin.second);
        d = tripoll::serial::hash_combine(d, n);
      }
      return d;
    };
    const auto fz_digest = digest(fz_bins.gather_all());
    const auto pd_digest = digest(pd_bins.gather_all());
    const auto ov_digest = digest(ov_bins.gather_all());
    const auto storage = fz.global_storage_stats();
    const auto pd_storage = pd.global_storage_stats();

    if (c.rank0()) {
      std::printf("frozen %s ranks %d delta %d ordering %s mode push_pull\n",
                  which.c_str(), ranks, delta, graph::ordering_name(g.ordering()));
      print_survey_line("frozen", fz_res.triangles_found, fz_res);
      print_survey_line("pushdown", pd_res.triangles_found, pd_res);
      print_survey_line("overlay", ov_res.triangles_found, ov_res);
      std::printf("digests frozen %016llx pushdown %016llx overlay %016llx\n",
                  (unsigned long long)fz_digest, (unsigned long long)pd_digest,
                  (unsigned long long)ov_digest);
      std::printf("arena bytes frozen %llu pushdown %llu (edges %llu)\n",
                  (unsigned long long)(storage.vertex_bytes + storage.edge_bytes),
                  (unsigned long long)(pd_storage.vertex_bytes + pd_storage.edge_bytes),
                  (unsigned long long)storage.edges);
    }
  });
  return 0;
}

/// `snapshot save` body, templated over "plain" vs "--meta" (deterministic
/// u64 timestamps on edges and labels on vertices, the same functions the
/// `plan` command uses -- so a served snapshot's hot/closure/maxlabel units
/// are reproducible from the edge list alone).
template <bool WithMeta>
void snapshot_save_run(const std::string& path, const std::string& prefix, int ranks) {
  using Meta = std::conditional_t<WithMeta, std::uint64_t, graph::none>;
  run_spmd(ranks, [&](comm::communicator& c) {
    graph::graph_builder<Meta, Meta> builder(c, g_ordering);
    graph::ingest_options in;
    in.threads = g_threads;
    graph::read_edge_list(
        c, path,
        [&](const graph::parsed_edge& e) {
          if constexpr (WithMeta) {
            builder.add_edge(e.u, e.v, plan_edge_ts(e.u, e.v));
          } else {
            builder.add_edge(e.u, e.v);
          }
        },
        in);
    graph::dodgr<Meta, Meta> g(c);
    builder.build_into(g);
    if constexpr (WithMeta) {
      g.for_all_local([](const graph::vertex_id& v, auto& rec) {
        rec.meta = plan_vertex_label(v);
        for (auto& e : rec.adj) e.target_meta = plan_vertex_label(e.target);
      });
    }
    graph::freeze_options fo;
    fo.threads = g_threads;
    auto fz = graph::freeze(g, fo);
    const auto codec = g_compress ? tripoll::graph::snapshot_codec::compressed
                                  : tripoll::graph::snapshot_codec::raw;
    const auto bytes =
        fz.comm().all_reduce_sum(tripoll::graph::save_snapshot(fz, prefix, codec));
    const auto census = fz.census();
    if (c.rank0()) {
      std::printf("snapshot saved %s ranks %d ordering %s\n", prefix.c_str(), ranks,
                  graph::ordering_name(fz.ordering()));
      std::printf("census |V| %llu |E|+ %llu dmax %llu dmax+ %llu |W+| %llu\n",
                  (unsigned long long)census.num_vertices,
                  (unsigned long long)census.num_directed_edges,
                  (unsigned long long)census.max_degree,
                  (unsigned long long)census.max_out_degree,
                  (unsigned long long)census.wedge_checks);
      std::printf("snapshot bytes %llu\n", (unsigned long long)bytes);
    }
  });
}

/// Frozen-graph snapshot workflow for plain edge-list files.  `save` builds
/// (and optionally degeneracy-orders) the graph once and writes per-rank
/// CSR arenas; `load` mmaps them back -- no edge shuffle, no re-peel -- and
/// runs the counting survey.  Output is deterministic for the smoke test.
int cmd_snapshot(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string verb = argv[2];

  if (verb == "save") {
    if (argc < 5) return usage();
    const std::string path = argv[3];
    const std::string prefix = argv[4];
    const int ranks = argc > 5 ? std::atoi(argv[5]) : 4;
    if (g_meta) {
      snapshot_save_run<true>(path, prefix, ranks);
    } else {
      snapshot_save_run<false>(path, prefix, ranks);
    }
    return 0;
  }

  if (verb == "load") {
    const std::string prefix = argv[3];
    const int ranks = argc > 4 ? std::atoi(argv[4]) : 4;
    const auto mode = (argc > 5 && std::strcmp(argv[5], "push_only") == 0)
                          ? tripoll::survey_mode::push_only
                          : tripoll::survey_mode::push_pull;
    // Dispatch on the stored metadata layout so --meta (and compacted
    // overlay) snapshots load too; the counting survey ignores metadata.
    const auto peek = graph::peek_snapshot(graph::snapshot_rank_path(prefix, 0));
    const bool with_meta = peek.vmeta_size == 8 && peek.emeta_size == 8;
    if (!with_meta && (peek.vmeta_size != 0 || peek.emeta_size != 0)) {
      std::fprintf(stderr, "snapshot load: unsupported metadata layout (%llu/%llu bytes)\n",
                   (unsigned long long)peek.vmeta_size,
                   (unsigned long long)peek.emeta_size);
      return 1;
    }
    run_spmd(ranks, [&](comm::communicator& c) {
      auto load_and_survey = [&](auto meta_tag) {
        using Meta = typename decltype(meta_tag)::type;
        auto g = graph::load_snapshot<Meta, Meta>(c, prefix);
        const auto census = g.census();
        cb::count_context ctx;
        const auto r =
            cb::plan_for(g, cb::count_callback{}, ctx).run({mode, g_threads}).slice(0);
        const auto triangles = ctx.global_count(c);
        if (c.rank0()) {
          std::printf("snapshot loaded %s ranks %d ordering %s mode %s\n",
                      prefix.c_str(), ranks, graph::ordering_name(g.ordering()),
                      mode == tripoll::survey_mode::push_only ? "push_only"
                                                              : "push_pull");
          std::printf("census |V| %llu |E|+ %llu dmax %llu dmax+ %llu |W+| %llu\n",
                      (unsigned long long)census.num_vertices,
                      (unsigned long long)census.num_directed_edges,
                      (unsigned long long)census.max_degree,
                      (unsigned long long)census.max_out_degree,
                      (unsigned long long)census.wedge_checks);
          print_survey_line("loaded", triangles, r);
        }
      };
      if (with_meta) {
        load_and_survey(std::type_identity<std::uint64_t>{});
      } else {
        load_and_survey(std::type_identity<graph::none>{});
      }
    });
    return 0;
  }
  return usage();
}

/// `serve` body: load the snapshot as the given metadata types and run the
/// resident survey daemon until a SHUTDOWN frame or SIGTERM/SIGINT.
template <typename VMeta, typename EMeta>
int serve_snapshot(const std::string& prefix, int ranks) {
  int rc = 0;
  run_spmd(ranks, [&](comm::communicator& c) {
    auto g = graph::load_snapshot<VMeta, EMeta>(c, prefix);
    svc::service_options opts;
    opts.endpoint_spec = g_endpoint;
    opts.window_ms = g_window_ms;
    opts.max_batch = g_max_batch;
    opts.cache_capacity = g_cache;
    opts.threads = g_threads;
    if (c.rank0()) {
      std::fprintf(stderr, "serving %s on %s (ranks %d)\n", prefix.c_str(),
                   g_endpoint.c_str(), ranks);
    }
    svc::survey_service daemon(g, opts);
    const int r = daemon.serve();
    if (c.rank0()) rc = r;
  });
  return rc;
}

/// Resident survey service over a saved snapshot.  The stored metadata
/// element sizes (peeked from rank 0's file) pick the graph type.
int cmd_serve(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string prefix = argv[2];
  const int ranks = argc > 3 ? std::atoi(argv[3]) : 1;
  const auto peek = graph::peek_snapshot(graph::snapshot_rank_path(prefix, 0));
  if (peek.vmeta_size == 0 && peek.emeta_size == 0) {
    return serve_snapshot<graph::none, graph::none>(prefix, ranks);
  }
  if (peek.vmeta_size == 8 && peek.emeta_size == 8) {
    return serve_snapshot<std::uint64_t, std::uint64_t>(prefix, ranks);
  }
  std::fprintf(stderr,
               "serve: unsupported snapshot metadata layout (%llu/%llu bytes); "
               "save with no metadata or with --meta\n",
               (unsigned long long)peek.vmeta_size,
               (unsigned long long)peek.emeta_size);
  return 1;
}

/// `ingest` body: load the snapshot as the given metadata types, wrap it in
/// the streaming overlay, apply the batch file and survey base+delta.  With
/// --compact, also re-freeze incrementally (reusing the stored ordering
/// ranks) and save a snapshot at <prefix>-compacted.  Every printed
/// value is a global reduction -- the socket smoke test diffs this output
/// across backends.
template <bool WithMeta>
int ingest_run(const std::string& prefix, const std::string& batch_path, int ranks) {
  using Meta = std::conditional_t<WithMeta, std::uint64_t, graph::none>;
  run_spmd(ranks, [&](comm::communicator& c) {
    auto base = graph::load_snapshot<Meta, Meta>(c, prefix);
    graph::overlay ov(base);
    typename graph::overlay<Meta, Meta>::edge_batch batch;
    graph::read_edge_list(c, batch_path, [&](const graph::parsed_edge& e) {
      if constexpr (WithMeta) {
        // A third column is the timestamp; otherwise fall back to the same
        // deterministic metadata the --meta snapshot was saved with.
        batch.push_back({e.u, e.v, e.weight ? *e.weight : plan_edge_ts(e.u, e.v)});
      } else {
        batch.push_back({e.u, e.v, {}});
      }
    });
    graph::overlay_ingest_stats st;
    if constexpr (WithMeta) {
      st = ov.ingest(batch,
                     [](graph::vertex_id v) { return plan_vertex_label(v); });
    } else {
      st = ov.ingest(batch);
    }
    const auto census = ov.census();
    cb::count_context ctx;
    const auto r = cb::plan_for(ov, cb::count_callback{}, ctx)
                       .run({tripoll::survey_mode::push_pull, g_threads})
                       .slice(0);
    const auto triangles = ctx.global_count(c);
    if (c.rank0()) {
      std::printf("ingest %s ranks %d ordering %s meta %s\n", prefix.c_str(), ranks,
                  graph::ordering_name(ov.ordering()), WithMeta ? "u64" : "none");
      std::printf("batch submitted %llu accepted %llu dup_batch %llu dup_base %llu "
                  "self_loops %llu new_vertices %llu rebuilt %llu\n",
                  (unsigned long long)st.submitted, (unsigned long long)st.accepted,
                  (unsigned long long)st.duplicate_batch,
                  (unsigned long long)st.duplicate_base,
                  (unsigned long long)st.self_loops,
                  (unsigned long long)st.new_vertices,
                  (unsigned long long)st.rebuilt_vertices);
      std::printf("census |V| %llu |E|+ %llu dmax %llu dmax+ %llu |W+| %llu\n",
                  (unsigned long long)census.num_vertices,
                  (unsigned long long)census.num_directed_edges,
                  (unsigned long long)census.max_degree,
                  (unsigned long long)census.max_out_degree,
                  (unsigned long long)census.wedge_checks);
      print_survey_line("overlay", triangles, r);
    }
    if (g_compact) {
      graph::freeze_options fo;
      fo.threads = g_threads;
      auto fz = ov.compact(fo);
      const auto codec = g_compress ? tripoll::graph::snapshot_codec::compressed
                                    : tripoll::graph::snapshot_codec::raw;
      const auto bytes = c.all_reduce_sum(
          tripoll::graph::save_snapshot(fz, prefix + "-compacted", codec));
      cb::count_context cctx;
      const auto cr = cb::plan_for(fz, cb::count_callback{}, cctx)
                          .run({tripoll::survey_mode::push_pull, g_threads})
                          .slice(0);
      const auto ctri = cctx.global_count(c);
      if (c.rank0()) {
        print_survey_line("compacted", ctri, cr);
        std::printf("compacted snapshot %s-compacted bytes %llu\n", prefix.c_str(),
                    (unsigned long long)bytes);
      }
    }
  });
  return 0;
}

/// Streaming overlay ingest over a saved snapshot.  The stored metadata
/// element sizes (peeked from rank 0's file) pick the overlay type, exactly
/// like `serve`.
int cmd_ingest(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string prefix = argv[2];
  const std::string batch_path = argv[3];
  const int ranks = argc > 4 ? std::atoi(argv[4]) : 1;
  const auto peek = graph::peek_snapshot(graph::snapshot_rank_path(prefix, 0));
  if (peek.vmeta_size == 0 && peek.emeta_size == 0) {
    return ingest_run<false>(prefix, batch_path, ranks);
  }
  if (peek.vmeta_size == 8 && peek.emeta_size == 8) {
    return ingest_run<true>(prefix, batch_path, ranks);
  }
  std::fprintf(stderr,
               "ingest: unsupported snapshot metadata layout (%llu/%llu bytes); "
               "save with no metadata or with --meta\n",
               (unsigned long long)peek.vmeta_size,
               (unsigned long long)peek.emeta_size);
  return 1;
}

[[nodiscard]] const char* unit_kind_name(std::uint64_t kind) {
  switch (static_cast<svc::unit_kind>(kind)) {
    case svc::unit_kind::count: return "count";
    case svc::unit_kind::hot_count: return "hot_count";
    case svc::unit_kind::closure_digest: return "closure_digest";
    case svc::unit_kind::max_label: return "max_label";
    case svc::unit_kind::window: return "window";
  }
  return "unknown";
}

/// One-shot client of a running daemon.  Unit specs accumulate into ONE
/// plan; `stats` / `shutdown` run after it.  Every printed value is a
/// global reduction served by the daemon, so the output is diffable against
/// the standalone `preset` / `plan` runs (the socket smoke test does).
int cmd_query(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string spec = argv[2];
  svc::plan_request req;
  bool do_stats = false;
  bool do_shutdown = false;
  for (int i = 3; i < argc; ++i) {
    const std::string s = argv[i];
    svc::plan_unit u;
    if (s == "stats") {
      do_stats = true;
      continue;
    }
    if (s == "shutdown") {
      do_shutdown = true;
      continue;
    }
    if (s == "count") {
      u.kind = static_cast<std::uint64_t>(svc::unit_kind::count);
    } else if (s == "hot" || s.rfind("hot:", 0) == 0) {
      u.kind = static_cast<std::uint64_t>(svc::unit_kind::hot_count);
      u.param = s == "hot" ? 500000 : std::strtoull(s.c_str() + 4, nullptr, 10);
    } else if (s == "closure") {
      u.kind = static_cast<std::uint64_t>(svc::unit_kind::closure_digest);
    } else if (s == "maxlabel") {
      u.kind = static_cast<std::uint64_t>(svc::unit_kind::max_label);
    } else if (s.rfind("window:", 0) == 0) {
      const char* p = s.c_str() + 7;
      char* end = nullptr;
      const unsigned long long t0 = std::strtoull(p, &end, 10);
      if (end == p || *end != ':') {
        std::fprintf(stderr, "query: bad window spec '%s' (want window:t0:t1)\n",
                     s.c_str());
        return usage();
      }
      const char* q = end + 1;
      const unsigned long long t1 = std::strtoull(q, &end, 10);
      if (end == q || *end != '\0') {
        std::fprintf(stderr, "query: bad window spec '%s' (want window:t0:t1)\n",
                     s.c_str());
        return usage();
      }
      if (t0 > 0xffffffffull || t1 > 0xffffffffull) {
        std::fprintf(stderr, "query: window bounds must fit in 32 bits\n");
        return usage();
      }
      u.kind = static_cast<std::uint64_t>(svc::unit_kind::window);
      u.param = svc::pack_window_param(t0, t1);
    } else {
      std::fprintf(stderr, "query: unknown spec '%s'\n", s.c_str());
      return usage();
    }
    req.units.push_back(u);
  }

  comm::service_client client(spec, 30.0);
  if (!req.units.empty()) {
    const auto resp = client.submit(req);
    std::printf("response snapshot %016llx engine_triangles %llu units %zu\n",
                (unsigned long long)resp.snapshot_id,
                (unsigned long long)resp.engine_triangles, resp.units.size());
    for (const auto& u : resp.units) {
      std::printf("unit %s param %llu fires %llu value %llu\n",
                  unit_kind_name(u.kind), (unsigned long long)u.param,
                  (unsigned long long)u.fires, (unsigned long long)u.value);
    }
  }
  if (do_stats) {
    const auto s = client.stats();
    std::printf("stats snapshot %016llx ranks %llu served %llu hits %llu "
                "misses %llu traversals %llu batches %llu max_batch %llu "
                "rejected %llu invalidated %llu\n",
                (unsigned long long)s.snapshot_id, (unsigned long long)s.nranks,
                (unsigned long long)s.plans_served, (unsigned long long)s.cache_hits,
                (unsigned long long)s.cache_misses, (unsigned long long)s.traversals,
                (unsigned long long)s.batches, (unsigned long long)s.max_batch,
                (unsigned long long)s.rejected,
                (unsigned long long)s.invalidation_evictions);
  }
  if (do_shutdown) {
    client.shutdown();
    std::printf("shutdown ok\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (!strip_flags(argc, argv)) return usage();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "preset") return cmd_preset(argc, argv);
    if (cmd == "plan") return cmd_plan(argc, argv);
    if (cmd == "frozen") return cmd_frozen(argc, argv);
    if (cmd == "snapshot") return cmd_snapshot(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "query") return cmd_query(argc, argv);
    if (cmd == "ingest") return cmd_ingest(argc, argv);
    if (argc < 3) return usage();
    const std::string path = argv[2];
    const int ranks = argc > 3 ? std::atoi(argv[3]) : 4;

    if (cmd == "census") {
      return with_plain_graph_from_file(path, ranks, [](comm::communicator& c, auto& g) {
        const auto s = g.census();
        if (c.rank0()) {
          std::printf("|V| %llu  |E|(directed) %llu  dmax %llu  dmax+ %llu  |W+| %llu"
                      "  (ordering %s)\n",
                      (unsigned long long)s.num_vertices,
                      (unsigned long long)s.num_directed_edges,
                      (unsigned long long)s.max_degree,
                      (unsigned long long)s.max_out_degree,
                      (unsigned long long)s.wedge_checks,
                      graph::ordering_name(g.ordering()));
        }
      });
    }
    if (cmd == "count") {
      const auto mode = (argc > 4 && std::strcmp(argv[4], "push_only") == 0)
                            ? tripoll::survey_mode::push_only
                            : tripoll::survey_mode::push_pull;
      return with_plain_graph_from_file(path, ranks,
                                        [mode](comm::communicator& c, auto& g) {
        auto fz = graph::freeze(g);
        cb::count_context ctx;
        const auto r =
            cb::plan_for(fz, cb::count_callback{}, ctx).run({mode, g_threads}).slice(0);
        const auto n = ctx.global_count(c);
        if (c.rank0()) {
          std::printf("triangles %llu  time %.3fs  volume %.2f MB  pulls %llu\n",
                      (unsigned long long)n, r.total.seconds,
                      static_cast<double>(r.total.volume_bytes) / 1e6,
                      (unsigned long long)r.pulls_granted);
        }
      });
    }
    if (cmd == "approx") {
      const auto samples =
          argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 100000ull;
      return with_plain_graph_from_file(path, 4,
                                        [samples](comm::communicator& c, auto& g) {
        const auto r = tripoll::baselines::approx_triangle_count(c, g, samples);
        if (c.rank0()) {
          std::printf("estimate %.0f  (samples %llu, closed %llu, |W+| %llu, %.3fs)\n",
                      r.estimate, (unsigned long long)r.samples,
                      (unsigned long long)r.closed,
                      (unsigned long long)r.total_wedges, r.seconds);
        }
      });
    }
    if (cmd == "clustering") {
      return with_plain_graph_from_file(path, ranks, [](comm::communicator& c, auto& g) {
        auto fz = graph::freeze(g);
        const auto s = ta::clustering_coefficients(fz);
        if (c.rank0()) {
          std::printf("triangles %llu  transitivity %.4f  avg local cc %.4f  "
                      "(over %llu vertices with d>=2)\n",
                      (unsigned long long)s.triangles, s.transitivity,
                      s.average_local_cc, (unsigned long long)s.eligible_vertices);
        }
      });
    }
    if (cmd == "closure") {
      run_spmd(ranks, [&](comm::communicator& c) {
        graph::graph_builder<graph::none, std::uint64_t, graph::merge::keep_least>
            builder(c, g_ordering);
        graph::read_edge_list(c, path, [&](const graph::parsed_edge& e) {
          builder.add_edge(e.u, e.v, e.weight.value_or(0));
        });
        graph::dodgr<graph::none, std::uint64_t> g(c);
        builder.build_into(g);
        auto fz = graph::freeze(g);
        comm::counting_set<cb::closure_bin> counters(c);
        cb::closure_time_context ctx{&counters};
        (void)cb::plan_for(fz, cb::closure_time_callback{}, ctx).run();
        counters.finalize();
        auto joint = counters.gather_all();
        if (c.rank0()) {
          std::map<std::uint32_t, std::uint64_t> close_marginal;
          for (const auto& [bin, n] : joint) close_marginal[bin.second] += n;
          for (const auto& [bin, n] : close_marginal) {
            std::printf("close 2^%-2u  %llu\n", bin, (unsigned long long)n);
          }
        }
      });
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
