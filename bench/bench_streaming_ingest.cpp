// bench_streaming_ingest -- streaming overlay vs full rebuild (PR 10
// acceptance numbers).
//
// Freezes the rmat ablation preset as the resident base, composes delta
// batches of 0.1% / 1% / 10% of |E| as uniform churn (new edges between
// uniformly-sampled existing vertices -- the steady-state feed model) plus
// one edge-biased `hub` case for context (see delta_mode), and measures per
// case (2 inproc ranks, so survey volume/messages are real inter-rank
// traffic):
//   * rebuild+survey wall: build the whole graph from scratch (shuffle,
//     degree ordering, freeze) and answer the steady-state query -- a
//     windowed survey over ~10% of the timestamp range (the streaming
//     workload this PR exists for: per-batch surveys of recent edges),
//   * ingest+survey wall: apply the delta as one overlay batch over the
//     resident frozen base and answer the same windowed query over
//     base+delta,
//   * full-survey wall over the overlay, for context (an unwindowed
//     all-history survey costs the same on both paths, so it bounds the
//     end-to-end speedup at ~(build+survey)/survey instead),
//   * compaction wall: incremental re-freeze of the overlay (stored ranks
//     reused -- no shuffle, no re-peel).
// Unwindowed triangle counts, survey volume and message counts must be
// bit-identical between the rebuild, the overlay and the compacted graph
// (degree ordering re-derives identical ranks), and the windowed fire
// counts must match between rebuild and overlay; any divergence is FATAL.
//
// `--json <path>` writes a `pr10_streaming_cases` object consumed by
// the gate table in tools/check_bench_regression.py (`--gates`), whose
// rows assert
//   * bit-identity (triangles / volume / messages / window fires)
//     unconditionally,
//   * ingest+windowed-survey >= 10x faster than rebuild+windowed-survey
//     on the 1% delta case (which must be present),
//   * windowed survey volume strictly below the unwindowed volume.
// `--quick` shrinks the graph and repetitions for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/overlay.hpp"
#include "serial/hash.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Timestamps in [0, 1000000), the same deterministic hash the CLI and the
/// service tests stamp --meta snapshots with.
std::uint64_t edge_ts(graph::vertex_id u, graph::vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 1000000;
}

struct undirected_edge {
  graph::vertex_id u = 0;
  graph::vertex_id v = 0;
};

/// The streaming base: a large, moderate-density rmat (edge factor 2, so
/// ~8 avg degree over the active vertices, vs ~78 for the dense ablation
/// preset).  Streaming cost scales with the sum of the batch endpoints'
/// degrees -- the state a batch touches -- while a rebuild pays for every
/// edge, so the base must look like a real feed (|E|/|V| moderate, state
/// large) for the comparison to mean anything.  Normalized (u < v),
/// deduplicated, no self loops: the ground truth both the rebuild and the
/// overlay paths must reproduce.
std::vector<undirected_edge> preset_edges(comm::communicator& c, int delta) {
  gen::rmat_params params;
  params.scale = static_cast<std::uint32_t>(std::max(4, 17 + delta));
  params.edge_factor = 2;
  params.a = 0.48;
  params.b = params.c = 0.21;
  params.seed = 505;
  const gen::rmat_generator g(params);
  std::vector<std::pair<graph::vertex_id, graph::vertex_id>> raw;
  gen::for_rank_slice(c, g.num_edges(), [&](std::uint64_t k) {
    const auto e = g.edge_at(k);
    if (e.u == e.v) return;
    raw.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  });
  std::sort(raw.begin(), raw.end());
  raw.erase(std::unique(raw.begin(), raw.end()), raw.end());
  std::vector<undirected_edge> out;
  out.reserve(raw.size());
  for (const auto& [u, v] : raw) out.push_back({u, v});
  return out;
}

struct survey_metrics {
  std::uint64_t triangles = 0;
  std::uint64_t volume = 0;
  std::uint64_t messages = 0;
};

template <typename Graph>
survey_metrics run_survey(comm::communicator& c, Graph& g) {
  cb::count_context ctx;
  const auto r = cb::plan_for(g, cb::count_callback{}, ctx).run({}).slice(0);
  return {ctx.global_count(c), r.total.volume_bytes, r.total.messages};
}

/// The steady-state query: a windowed count over ~10% of the [0, 1000000)
/// timestamp range (the sender-side wedge filter skips everything else).
constexpr std::uint64_t kWindowT0 = 0;
constexpr std::uint64_t kWindowT1 = 100000;

struct windowed_metrics {
  std::uint64_t fires = 0;
  std::uint64_t volume = 0;
};

template <typename Graph>
windowed_metrics run_windowed_survey(comm::communicator& c, Graph& g) {
  cb::count_context ctx;
  const auto r = cb::plan_for(g, cb::count_callback{}, ctx)
                     .window(kWindowT0, kWindowT1)
                     .run({})
                     .slice(0);
  return {ctx.global_count(c), r.total.volume_bytes};
}

using base_graph = graph::frozen_dodgr<graph::none, std::uint64_t>;

/// Build + freeze the given undirected edges under degree ordering; each
/// rank contributes its stripe, like a real distributed ingest.
base_graph freeze_edges(comm::communicator& c,
                        const std::vector<undirected_edge>& edges) {
  graph::dodgr<graph::none, std::uint64_t> g(c);
  graph::graph_builder<graph::none, std::uint64_t> builder(
      c, graph::ordering_policy::degree);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(c.size())) != c.rank()) continue;
    builder.add_edge(edges[i].u, edges[i].v, edge_ts(edges[i].u, edges[i].v));
  }
  builder.build_into(g);
  return graph::freeze(g);
}

struct stream_case {
  std::uint64_t base_edges = 0;
  std::uint64_t delta_edges = 0;
  double rebuild_seconds = 0.0;       ///< build + freeze + windowed survey
  double incremental_seconds = 0.0;   ///< overlay ingest + windowed survey
  double full_survey_seconds = 0.0;   ///< unwindowed survey over the overlay
  double compact_seconds = 0.0;
  std::uint64_t triangles_rebuild = 0;
  std::uint64_t triangles_overlay = 0;
  std::uint64_t triangles_compacted = 0;
  std::uint64_t volume_rebuild = 0;
  std::uint64_t volume_overlay = 0;
  std::uint64_t messages_rebuild = 0;
  std::uint64_t messages_overlay = 0;
  std::uint64_t full_volume = 0;    ///< unwindowed survey volume (== overlay)
  std::uint64_t window_volume = 0;  ///< same plan under .window(t0, t1)
  std::uint64_t window_fires = 0;
  std::uint64_t window_fires_rebuild = 0;

  [[nodiscard]] double speedup() const {
    return incremental_seconds > 0 ? rebuild_seconds / incremental_seconds : 0.0;
  }
  [[nodiscard]] double window_reduction() const {
    return window_volume > 0
               ? static_cast<double>(full_volume) / static_cast<double>(window_volume)
               : 0.0;
  }
};

/// How a case composes its delta batch.
///   churn    -- NEW edges between uniformly-sampled existing vertices (the
///               steady-state model: a typical batch touches typical
///               endpoints).  This is the composition the speedup gate
///               runs on.
///   hub_tail -- every `stride`-th edge of the rmat multiset (edge-biased,
///               i.e. concentrated on hubs: one hub rank bump makes the
///               eager <+ cache refresh touch the hub's whole neighborhood,
///               so sum-of-endpoint-degree -- and with it ingest cost --
///               approaches O(|E|) even at a 1% batch).  Reported for
///               context, not gated.
enum class delta_mode { churn, hub_tail };

stream_case run_case(const std::vector<undirected_edge>& edges,
                     double delta_fraction, int reps, delta_mode mode) {
  stream_case out;
  const std::uint64_t total = edges.size();
  const auto delta_count = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(total) * delta_fraction));
  std::vector<undirected_edge> base_edges;
  std::vector<undirected_edge> delta_edges;
  if (mode == delta_mode::hub_tail) {
    const std::uint64_t stride = total / delta_count;
    for (std::uint64_t i = 0; i < total; ++i) {
      if (i % stride == 0 && delta_edges.size() < delta_count) {
        delta_edges.push_back(edges[i]);
      } else {
        base_edges.push_back(edges[i]);
      }
    }
  } else {
    base_edges = edges;
    std::vector<graph::vertex_id> verts;
    verts.reserve(edges.size() * 2);
    for (const auto& e : edges) {
      verts.push_back(e.u);
      verts.push_back(e.v);
    }
    std::sort(verts.begin(), verts.end());
    verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
    // Preset vertex ids fit in 32 bits, so a packed pair keys the edge set.
    const auto pack = [](graph::vertex_id u, graph::vertex_id v) {
      return (static_cast<std::uint64_t>(u) << 32) | v;
    };
    std::unordered_set<std::uint64_t> present;
    present.reserve(edges.size() * 2);
    for (const auto& e : edges) present.insert(pack(e.u, e.v));
    std::uint64_t s = 0x243f6a8885a308d3ull;  // fixed seed: runs are repeatable
    while (delta_edges.size() < delta_count) {
      const auto a = verts[tripoll::serial::splitmix64(s++) % verts.size()];
      const auto b = verts[tripoll::serial::splitmix64(s++) % verts.size()];
      if (a == b) continue;
      const auto u = std::min(a, b);
      const auto v = std::max(a, b);
      if (!present.insert(pack(u, v)).second) continue;
      delta_edges.push_back({u, v});
    }
  }
  std::vector<undirected_edge> all_edges = base_edges;
  all_edges.insert(all_edges.end(), delta_edges.begin(), delta_edges.end());
  out.base_edges = base_edges.size();
  out.delta_edges = delta_edges.size();

  comm::runtime::run(2, [&](comm::communicator& c) {
    // The resident base is frozen once; every incremental rep pays only the
    // overlay wrap (untimed -- a resident service holds it already), the
    // batch ingest and the windowed survey.  Each rank contributes its
    // stripe of the batch, like a real distributed feed.
    auto base = freeze_edges(c, base_edges);
    graph::overlay<graph::none, std::uint64_t>::edge_batch batch;
    for (std::size_t i = 0; i < delta_edges.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(c.size())) != c.rank()) continue;
      const auto& e = delta_edges[i];
      batch.push_back({e.u, e.v, edge_ts(e.u, e.v)});
    }

    std::vector<double> rebuild, incremental, full_survey;
    for (int r = 0; r < reps; ++r) {
      auto t0 = clock_type::now();
      auto full = freeze_edges(c, all_edges);
      const auto wr = run_windowed_survey(c, full);
      rebuild.push_back(seconds_since(t0));
      if (c.rank0()) out.window_fires_rebuild = wr.fires;

      graph::overlay ov(base);
      t0 = clock_type::now();
      (void)ov.ingest(batch);
      const auto wo = run_windowed_survey(c, ov);
      incremental.push_back(seconds_since(t0));
      if (c.rank0()) {
        out.window_fires = wo.fires;
        out.window_volume = wo.volume;
      }

      if (r + 1 == reps) {
        // Unwindowed all-history surveys: the bit-identity matrix and the
        // context wall that bounds full-resurvey speedups.
        const auto rm = run_survey(c, full);
        t0 = clock_type::now();
        const auto om = run_survey(c, ov);
        full_survey.push_back(seconds_since(t0));
        if (c.rank0()) {
          out.triangles_rebuild = rm.triangles;
          out.volume_rebuild = rm.volume;
          out.messages_rebuild = rm.messages;
          out.triangles_overlay = om.triangles;
          out.volume_overlay = om.volume;
          out.messages_overlay = om.messages;
          out.full_volume = om.volume;
        }

        const auto ct0 = clock_type::now();
        auto compacted = ov.compact({});
        const double cs = seconds_since(ct0);
        const auto cm = run_survey(c, compacted);
        if (c.rank0()) {
          out.compact_seconds = cs;
          out.triangles_compacted = cm.triangles;
        }
      }
    }
    if (c.rank0()) {
      out.rebuild_seconds = median(rebuild);
      out.incremental_seconds = median(incremental);
      out.full_survey_seconds = median(full_survey);
    }
  });
  return out;
}

void print_case(const std::string& name, const stream_case& sc) {
  std::printf("%-14s base %8llu + delta %7llu  rebuild %7.4fs  ingest %7.4fs "
              "(%6.2fx)  full survey %7.4fs  compact %7.4fs\n",
              name.c_str(), (unsigned long long)sc.base_edges,
              (unsigned long long)sc.delta_edges, sc.rebuild_seconds,
              sc.incremental_seconds, sc.speedup(), sc.full_survey_seconds,
              sc.compact_seconds);
  std::printf("%-14s triangles %llu  volume %llu B  window volume %llu B "
              "(%4.1fx smaller, %llu fires)\n",
              "", (unsigned long long)sc.triangles_overlay,
              (unsigned long long)sc.full_volume,
              (unsigned long long)sc.window_volume, sc.window_reduction(),
              (unsigned long long)sc.window_fires);
}

void write_json(const char* path, const std::map<std::string, stream_case>& cases,
                int delta) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"pr10_streaming_cases\": {\n");
  std::size_t i = 0;
  for (const auto& [name, sc] : cases) {
    std::fprintf(
        f,
        "    \"%s\": {\"base_edges\": %llu, \"delta_edges\": %llu, "
        "\"rebuild_seconds\": %.6f, \"incremental_seconds\": %.6f, "
        "\"full_survey_seconds\": %.6f, \"compact_seconds\": %.6f, "
        "\"triangles_rebuild\": %llu, \"triangles_overlay\": %llu, "
        "\"triangles_compacted\": %llu, "
        "\"volume_rebuild\": %llu, \"volume_overlay\": %llu, "
        "\"messages_rebuild\": %llu, \"messages_overlay\": %llu, "
        "\"full_volume\": %llu, \"window_volume\": %llu, "
        "\"window_fires\": %llu, \"window_fires_rebuild\": %llu}%s\n",
        name.c_str(), (unsigned long long)sc.base_edges,
        (unsigned long long)sc.delta_edges, sc.rebuild_seconds,
        sc.incremental_seconds, sc.full_survey_seconds, sc.compact_seconds,
        (unsigned long long)sc.triangles_rebuild,
        (unsigned long long)sc.triangles_overlay,
        (unsigned long long)sc.triangles_compacted,
        (unsigned long long)sc.volume_rebuild,
        (unsigned long long)sc.volume_overlay,
        (unsigned long long)sc.messages_rebuild,
        (unsigned long long)sc.messages_overlay,
        (unsigned long long)sc.full_volume, (unsigned long long)sc.window_volume,
        (unsigned long long)sc.window_fires,
        (unsigned long long)sc.window_fires_rebuild,
        ++i == cases.size() ? "" : ",");
  }
  std::fprintf(f, "  },\n  \"params\": {\"ranks\": 2, \"delta\": %d, "
               "\"hw_threads\": %u}\n}\n",
               delta, std::thread::hardware_concurrency());
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

  const int delta = quick ? -1 : tripoll::bench::scale_delta_from_env(1);
  const int reps = quick ? 3 : 5;

  tripoll::bench::print_header(
      "Streaming overlay: incremental ingest+survey vs full rebuild", "PR 10");

  std::vector<undirected_edge> edges;
  comm::runtime::run(1, [&](comm::communicator& c) { edges = preset_edges(c, delta); });

  const std::map<std::string, std::pair<double, delta_mode>> fractions = {
      {"delta_0.1pct", {0.001, delta_mode::churn}},
      {"delta_1pct", {0.01, delta_mode::churn}},
      {"delta_10pct", {0.1, delta_mode::churn}},
      {"delta_1pct_hub", {0.01, delta_mode::hub_tail}}};
  std::map<std::string, stream_case> cases;
  for (const auto& [name, mode] : fractions) {
    cases[name] = run_case(edges, mode.first, reps, mode.second);
    print_case(name, cases[name]);
    const auto& sc = cases[name];
    if (sc.triangles_rebuild != sc.triangles_overlay ||
        sc.triangles_rebuild != sc.triangles_compacted ||
        sc.volume_rebuild != sc.volume_overlay ||
        sc.messages_rebuild != sc.messages_overlay ||
        sc.window_fires != sc.window_fires_rebuild) {
      std::fprintf(stderr,
                   "FATAL: %s: overlay diverged from rebuild (triangles %llu/%llu/%llu, "
                   "volume %llu/%llu, messages %llu/%llu)\n",
                   name.c_str(), (unsigned long long)sc.triangles_rebuild,
                   (unsigned long long)sc.triangles_overlay,
                   (unsigned long long)sc.triangles_compacted,
                   (unsigned long long)sc.volume_rebuild,
                   (unsigned long long)sc.volume_overlay,
                   (unsigned long long)sc.messages_rebuild,
                   (unsigned long long)sc.messages_overlay);
      return 1;
    }
    if (sc.window_volume >= sc.full_volume) {
      std::fprintf(stderr,
                   "FATAL: %s: windowed survey volume %llu B did not drop below "
                   "the unwindowed %llu B\n",
                   name.c_str(), (unsigned long long)sc.window_volume,
                   (unsigned long long)sc.full_volume);
      return 1;
    }
  }
  if (json_path != nullptr) write_json(json_path, cases, delta);
  return 0;
}
