// quickstart -- the smallest complete TriPoll program.
//
// Builds a graph on a simulated 4-rank runtime, runs a triangle survey with
// the counting callback (paper Alg. 2), and prints the count plus the
// engine's execution metrics.
//
// Usage: quickstart [scale] [ranks] [--ordering degree|degeneracy]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "baselines/serial_tc.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;

int main(int argc, char** argv) {
  graph::ordering_policy ordering = graph::ordering_policy::degree;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ordering") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--ordering needs a value (degree|degeneracy)\n");
        return 2;
      }
      const auto parsed = graph::parse_ordering(argv[i + 1]);
      if (!parsed) {
        std::fprintf(stderr, "unknown ordering '%s' (degree|degeneracy)\n", argv[i + 1]);
        return 2;
      }
      ordering = *parsed;
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  const std::uint32_t scale = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 12;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 4;

  comm::runtime::run(ranks, [&](comm::communicator& c) {
    // 1. Every rank contributes a slice of a deterministic R-MAT stream.
    gen::rmat_generator rmat(gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, 42, true});
    graph::graph_builder<graph::none, graph::none> builder(c, ordering);
    gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
      const auto e = rmat.edge_at(k);
      builder.add_edge(e.u, e.v);
    });

    // 2. Collective construction of the order-directed graph, then a
    //    rank-local freeze into the CSR arenas the survey engine walks.
    graph::dodgr<graph::none, graph::none> g(c);
    builder.build_into(g);
    auto fz = graph::freeze(g);
    const auto census = fz.census();

    // 3. Survey plan: register the counting callback (Alg. 2) and run one
    //    traversal.  count_callback declares drop projections, so the
    //    traversal would ship zero metadata bytes even on a rich graph;
    //    more .add(callback, context) pairs would fuse into the same pass.
    cb::count_context ctx;
    const auto result = cb::plan_for(fz, cb::count_callback{}, ctx)
                            .run({tripoll::survey_mode::push_pull})
                            .slice(0);
    const auto triangles = ctx.global_count(c);

    if (c.rank0()) {
      std::printf("ordering: %s\n", graph::ordering_name(g.ordering()));
      std::printf("graph: |V|=%llu directed |E|=%llu dmax=%llu dmax+=%llu |W+|=%llu\n",
                  (unsigned long long)census.num_vertices,
                  (unsigned long long)census.num_directed_edges,
                  (unsigned long long)census.max_degree,
                  (unsigned long long)census.max_out_degree,
                  (unsigned long long)census.wedge_checks);
      std::printf("triangles: %llu\n", (unsigned long long)triangles);
      std::printf("survey: %.3fs total, %.2f MB communicated, %llu pulls granted\n",
                  result.total.seconds,
                  static_cast<double>(result.total.volume_bytes) / 1e6,
                  (unsigned long long)result.pulls_granted);
    }
  });
  return 0;
}
