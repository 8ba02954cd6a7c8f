// bench_snapshot_io -- parallel ingest-to-freeze pipeline and snapshot
// codecs (PR 8 acceptance numbers).
//
// For each ablation preset (rmat / temporal / web) this bench writes the
// graph to an edge-list file once, then measures:
//   * edge-list ingest wall at 1 thread vs 4 threads (median of N reps,
//     identical edge counts asserted) and the resulting MB/s,
//   * freeze wall at 1 thread vs 4 threads over the same built graph,
//   * snapshot file bytes per directed edge for the raw and compressed
//     codecs, and the time-to-first-survey of each: load plus one
//     counting survey, because the raw path's mmap defers its
//     page faults to the traversal -- timing the load call alone would
//     credit raw with work it has merely postponed (median of N reps;
//     identical triangle counts asserted).
//
// `--json <path>` writes a `pr8_io_cases` object consumed by
// tools/check_bench_regression.py --io-gates, which asserts
//   * identical triangle counts between the raw and compressed loads,
//   * raw/compressed snapshot size ratio >= --io-compression-min,
//   * compressed/raw load wall ratio <= --io-load-max,
//   * (ingest+freeze) 1-thread/4-thread speedup >= --io-speedup-min,
//     skipped when params.hw_threads < 4.
// `--quick` shrinks the graphs and repetitions for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/io.hpp"
#include "graph/snapshot.hpp"

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

struct io_case {
  std::uint64_t edges = 0;       ///< global directed (out-)edges after build
  std::uint64_t file_bytes = 0;  ///< edge-list file size
  std::uint64_t ingested = 0;    ///< parsed edges (identical at any threads)
  double ingest_seconds_1t = 0.0;
  double ingest_seconds_4t = 0.0;
  double freeze_seconds_1t = 0.0;
  double freeze_seconds_4t = 0.0;
  std::uint64_t snapshot_bytes_raw = 0;
  std::uint64_t snapshot_bytes_compressed = 0;
  double load_seconds_raw = 0.0;
  double load_seconds_compressed = 0.0;
  std::uint64_t triangles_raw = 0;
  std::uint64_t triangles_compressed = 0;

  [[nodiscard]] double ingest_mb_per_s() const {
    return ingest_seconds_4t > 0
               ? static_cast<double>(file_bytes) / 1e6 / ingest_seconds_4t
               : 0.0;
  }
  [[nodiscard]] double combined_speedup() const {
    const double par = ingest_seconds_4t + freeze_seconds_4t;
    return par > 0 ? (ingest_seconds_1t + freeze_seconds_1t) / par : 0.0;
  }
  [[nodiscard]] double compression_ratio() const {
    return snapshot_bytes_compressed > 0
               ? static_cast<double>(snapshot_bytes_raw) /
                     static_cast<double>(snapshot_bytes_compressed)
               : 0.0;
  }
};

/// Write one preset's edge list to a file (single rank, deterministic).
std::uint64_t write_preset_file(const std::string& which, int delta,
                                const std::string& path) {
  std::uint64_t lines = 0;
  comm::runtime::run(1, [&](comm::communicator& c) {
    graph::edge_list_writer out(path);
    gen::for_preset_edges(c, which, delta, [&](graph::vertex_id u, graph::vertex_id v) {
      out.write(u, v);
      ++lines;
    });
  });
  return lines;
}

io_case run_case(const std::string& which, int delta, int reps) {
  io_case out;
  const std::string stem =
      (std::filesystem::temp_directory_path() /
       ("tripoll_bench_io_" + which + "_" + std::to_string(::getpid())))
          .string();
  const std::string edges_path = stem + ".txt";
  (void)write_preset_file(which, delta, edges_path);
  out.file_bytes = std::filesystem::file_size(edges_path);

  comm::runtime::run(1, [&](comm::communicator& c) {
    // Ingest wall at 1 vs 4 threads (sink only counts; the parse itself is
    // what scales).  Medians over alternating reps.
    std::vector<double> ing1, ing4;
    std::uint64_t edges_1t = 0, edges_4t = 0;
    for (int r = 0; r < reps; ++r) {
      for (const int threads : {1, 4}) {
        graph::ingest_options opts;
        opts.threads = threads;
        std::uint64_t n = 0;
        const auto t0 = clock_type::now();
        const auto stats = graph::read_edge_list(
            c, edges_path, [&](const graph::parsed_edge&) { ++n; }, opts);
        const double s = seconds_since(t0);
        (threads == 1 ? ing1 : ing4).push_back(s);
        (threads == 1 ? edges_1t : edges_4t) = n;
        (void)stats;
      }
    }
    if (edges_1t != edges_4t) {
      std::fprintf(stderr, "FATAL: parallel ingest parsed %llu edges, serial %llu\n",
                   (unsigned long long)edges_4t, (unsigned long long)edges_1t);
      std::exit(1);
    }
    out.ingested = edges_1t;
    out.ingest_seconds_1t = median(ing1);
    out.ingest_seconds_4t = median(ing4);

    // Build once, freeze repeatedly at 1 vs 4 threads.
    gen::plain_graph g(c);
    graph::graph_builder<graph::none, graph::none> builder(
        c, graph::ordering_policy::degeneracy);
    graph::read_edge_list(c, edges_path, [&](const graph::parsed_edge& e) {
      builder.add_edge(e.u, e.v);
    });
    builder.build_into(g);
    std::vector<double> frz1, frz4;
    for (int r = 0; r < reps; ++r) {
      for (const int threads : {1, 4}) {
        graph::freeze_options opts;
        opts.threads = threads;
        const auto t0 = clock_type::now();
        auto fz = graph::freeze(g, opts);
        (threads == 1 ? frz1 : frz4).push_back(seconds_since(t0));
        if (r == 0 && threads == 1) out.edges = fz.local_num_edges();
      }
    }
    out.freeze_seconds_1t = median(frz1);
    out.freeze_seconds_4t = median(frz4);

    // Snapshot codecs: bytes on disk and time-to-first-survey (load plus
    // one counting survey -- mmap's lazy page faults land in the traversal,
    // so this is the walltime the two paths genuinely compete on; the files
    // were just written, so the page cache is hot for both).
    auto fz = graph::freeze(g);
    out.snapshot_bytes_raw = graph::save_snapshot(fz, stem + ".raw");
    out.snapshot_bytes_compressed =
        graph::save_snapshot(fz, stem + ".cmp", graph::snapshot_codec::compressed);
    std::vector<double> load_raw, load_cmp;
    for (int r = 0; r < reps; ++r) {
      auto t0 = clock_type::now();
      {
        auto a = graph::load_snapshot<graph::none, graph::none>(c, stem + ".raw");
        cb::count_context ctx;
        (void)cb::plan_for(a, cb::count_callback{}, ctx).run({});
        out.triangles_raw = ctx.global_count(c);
      }
      load_raw.push_back(seconds_since(t0));
      t0 = clock_type::now();
      {
        auto b = graph::load_snapshot<graph::none, graph::none>(c, stem + ".cmp");
        cb::count_context ctx;
        (void)cb::plan_for(b, cb::count_callback{}, ctx).run({});
        out.triangles_compressed = ctx.global_count(c);
      }
      load_cmp.push_back(seconds_since(t0));
    }
    out.load_seconds_raw = median(load_raw);
    out.load_seconds_compressed = median(load_cmp);
  });

  std::filesystem::remove(edges_path);
  std::filesystem::remove(graph::snapshot_rank_path(stem + ".raw", 0));
  std::filesystem::remove(graph::snapshot_rank_path(stem + ".cmp", 0));
  return out;
}

void print_case(const std::string& name, const io_case& ic) {
  std::printf("%-10s edges %9llu  ingest %6.4fs -> %6.4fs  freeze %6.4fs -> %6.4fs  "
              "pipeline %4.2fx  %6.1f MB/s\n",
              name.c_str(), (unsigned long long)ic.edges, ic.ingest_seconds_1t,
              ic.ingest_seconds_4t, ic.freeze_seconds_1t, ic.freeze_seconds_4t,
              ic.combined_speedup(), ic.ingest_mb_per_s());
  std::printf("%-10s snapshot %8llu B raw, %8llu B cmp (%4.2fx)  load+survey %6.4fs raw, "
              "%6.4fs cmp\n",
              "", (unsigned long long)ic.snapshot_bytes_raw,
              (unsigned long long)ic.snapshot_bytes_compressed, ic.compression_ratio(),
              ic.load_seconds_raw, ic.load_seconds_compressed);
}

void write_json(const char* path, const std::map<std::string, io_case>& cases,
                int delta) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"pr8_io_cases\": {\n");
  std::size_t i = 0;
  for (const auto& [name, ic] : cases) {
    std::fprintf(
        f,
        "    \"%s\": {\"edges\": %llu, \"file_bytes\": %llu, "
        "\"ingest_seconds_1t\": %.6f, \"ingest_seconds_4t\": %.6f, "
        "\"ingest_mb_per_s\": %.2f, "
        "\"freeze_seconds_1t\": %.6f, \"freeze_seconds_4t\": %.6f, "
        "\"snapshot_bytes_raw\": %llu, \"snapshot_bytes_compressed\": %llu, "
        "\"load_seconds_raw\": %.6f, \"load_seconds_compressed\": %.6f, "
        "\"triangles_raw\": %llu, \"triangles_compressed\": %llu}%s\n",
        name.c_str(), (unsigned long long)ic.edges,
        (unsigned long long)ic.file_bytes, ic.ingest_seconds_1t, ic.ingest_seconds_4t,
        ic.ingest_mb_per_s(), ic.freeze_seconds_1t, ic.freeze_seconds_4t,
        (unsigned long long)ic.snapshot_bytes_raw,
        (unsigned long long)ic.snapshot_bytes_compressed, ic.load_seconds_raw,
        ic.load_seconds_compressed, (unsigned long long)ic.triangles_raw,
        (unsigned long long)ic.triangles_compressed, ++i == cases.size() ? "" : ",");
  }
  std::fprintf(f, "  },\n  \"params\": {\"ranks\": 1, \"delta\": %d, "
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
  const int reps = quick ? 3 : 7;

  tripoll::bench::print_header(
      "Parallel ingest-to-freeze pipeline and snapshot codecs (raw vs compressed)",
      "PR 8");
  std::map<std::string, io_case> cases;
  for (const std::string which : {"rmat", "temporal", "web"}) {
    cases[which] = run_case(which, delta, reps);
    print_case(which, cases[which]);
    const auto& ic = cases[which];
    if (ic.triangles_raw != ic.triangles_compressed) {
      std::fprintf(stderr,
                   "FATAL: triangle counts diverge on %s (raw %llu, compressed %llu)\n",
                   which.c_str(), (unsigned long long)ic.triangles_raw,
                   (unsigned long long)ic.triangles_compressed);
      return 1;
    }
  }
  if (json_path != nullptr) write_json(json_path, cases, delta);
  return 0;
}
