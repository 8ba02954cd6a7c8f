// bench_parallel_traversal -- intra-rank parallel survey scaling.
//
// For each preset (rmat / web) this bench builds the graph once, freezes
// it, then measures the counting survey (registered through the plan
// reduction hook, so intersection fires run on worker threads) at
// TRIPOLL_THREADS in {1, 2, 4, 8}:
//   * median wall time per thread count -> speedup-per-core,
//   * triangles / volume_bytes / messages / closed batches per thread
//     count (must be bit-identical; the binary exits 1 if they move).
//
// `--json <path>` writes a `pr6_parallel_cases` object consumed by
// tools/check_bench_regression.py --parallel-gates, which asserts
//   * identical counts/volume/messages across every thread count,
//   * speedup at 4 threads >= --parallel-speedup-min (1.6) on the rmat
//     case (skipped when the machine has fewer than 4 hardware threads).
// `--quick` shrinks the graphs and repetitions for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;

namespace {

using clock_type = std::chrono::steady_clock;

struct thread_sample {
  int threads = 0;
  double seconds = 0.0;           ///< median survey wall time (max over ranks)
  std::uint64_t triangles = 0;
  std::uint64_t volume_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t list_batches = 0;
};

struct parallel_case {
  std::uint64_t edges = 0;
  std::vector<thread_sample> samples;

  [[nodiscard]] const thread_sample* at(int threads) const {
    for (const auto& s : samples) {
      if (s.threads == threads) return &s;
    }
    return nullptr;
  }
  [[nodiscard]] double speedup(int threads) const {
    const auto* s1 = at(1);
    const auto* st = at(threads);
    return (s1 && st && st->seconds > 0) ? s1->seconds / st->seconds : 0.0;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename Graph>
thread_sample measure(comm::communicator& c, Graph& fz, int threads, int reps) {
  thread_sample s;
  s.threads = threads;
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    cb::count_context ctx;
    const auto res = cb::plan_for_reduced(fz, cb::count_callback{}, ctx,
                                          cb::count_reduce{})
                         .run({tripoll::survey_mode::push_pull, threads});
    times.push_back(res.total.total.seconds);
    s.triangles = ctx.global_count(c);
    s.volume_bytes = res.total.total.volume_bytes;
    s.messages = res.total.total.messages;
    s.list_batches = res.total.list_batches;
  }
  s.seconds = median(times);
  return s;
}

parallel_case run_case(const std::string& which, int ranks, int delta, int reps,
                       const std::vector<int>& thread_counts) {
  parallel_case out;
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::plain_graph g(c);
    // Degree ordering keeps hub out-degrees high, so the skewed presets
    // load the gallop side of the intersection kernel.
    graph::graph_builder<graph::none, graph::none> builder(
        c, graph::ordering_policy::degree);
    gen::for_preset_edges(c, which, delta, [&](graph::vertex_id u, graph::vertex_id v) {
      builder.add_edge(u, v);
    });
    builder.build_into(g);
    auto fz = graph::freeze(g);

    std::vector<thread_sample> samples;
    for (const int t : thread_counts) {
      samples.push_back(measure(c, fz, t, reps));
    }

    const auto stats = fz.global_storage_stats();  // collective: every rank
    if (c.rank0()) {
      out.edges = stats.edges;
      out.samples = samples;
    }
  });
  return out;
}

void print_case(const std::string& name, const parallel_case& pc) {
  std::printf("%-8s edges %9llu\n", name.c_str(), (unsigned long long)pc.edges);
  for (const auto& s : pc.samples) {
    std::printf("  threads %d  %8.4fs  speedup %5.2fx  tri %llu  batches %llu\n",
                s.threads, s.seconds, pc.speedup(s.threads),
                (unsigned long long)s.triangles, (unsigned long long)s.list_batches);
  }
}

void write_json(const char* path, const std::map<std::string, parallel_case>& cases,
                int ranks, int delta, unsigned hw_threads) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"pr6_parallel_cases\": {\n");
  std::size_t i = 0;
  for (const auto& [name, pc] : cases) {
    std::fprintf(f, "    \"%s\": {\"edges\": %llu, \"threads\": [\n", name.c_str(),
                 (unsigned long long)pc.edges);
    for (std::size_t k = 0; k < pc.samples.size(); ++k) {
      const auto& s = pc.samples[k];
      std::fprintf(f,
                   "      {\"threads\": %d, \"seconds\": %.6f, \"triangles\": %llu, "
                   "\"volume_bytes\": %llu, \"messages\": %llu, "
                   "\"list_batches\": %llu}%s\n",
                   s.threads, s.seconds, (unsigned long long)s.triangles,
                   (unsigned long long)s.volume_bytes, (unsigned long long)s.messages,
                   (unsigned long long)s.list_batches,
                   k + 1 == pc.samples.size() ? "" : ",");
    }
    std::fprintf(f, "    ], \"speedup_4t\": %.3f}%s\n", pc.speedup(4),
                 ++i == cases.size() ? "" : ",");
  }
  std::fprintf(f,
               "  },\n  \"params\": {\"ranks\": %d, \"delta\": %d, "
               "\"hw_threads\": %u}\n}\n",
               ranks, delta, hw_threads);
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

  const int ranks = 2;
  const int delta = quick ? -2 : tripoll::bench::scale_delta_from_env(0);
  const int reps = quick ? 5 : 9;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const std::vector<int> thread_counts{1, 2, 4, 8};

  tripoll::bench::print_header(
      "Intra-rank parallel traversal (speedup per core)",
      "PR 6");
  std::printf("hardware threads: %u, ranks: %d\n\n", hw_threads, ranks);

  std::map<std::string, parallel_case> cases;
  for (const std::string which : {"rmat", "web"}) {
    cases[which] = run_case(which, ranks, delta, reps, thread_counts);
    print_case(which, cases[which]);
    // Bit-identity across thread counts is a correctness property, not a
    // performance one: fail loudly right here.
    const auto& pc = cases[which];
    for (const auto& s : pc.samples) {
      const auto& base = pc.samples.front();
      if (s.triangles != base.triangles || s.volume_bytes != base.volume_bytes ||
          s.messages != base.messages || s.list_batches != base.list_batches) {
        std::fprintf(stderr,
                     "FATAL: %s diverged at %d threads (tri %llu vs %llu, vol %llu "
                     "vs %llu, msg %llu vs %llu)\n",
                     which.c_str(), s.threads, (unsigned long long)s.triangles,
                     (unsigned long long)base.triangles,
                     (unsigned long long)s.volume_bytes,
                     (unsigned long long)base.volume_bytes,
                     (unsigned long long)s.messages, (unsigned long long)base.messages);
        return 1;
      }
    }  }
  if (json_path != nullptr) write_json(json_path, cases, ranks, delta, hw_threads);
  return 0;
}
