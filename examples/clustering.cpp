// clustering -- triangle-derived analytics: local clustering coefficients,
// global transitivity and edge support (the truss primitive).
//
// These are the applications the paper cites for local triangle counts
// (truss decomposition, clustering coefficients, community detection); all
// reduce to TriPoll surveys with counting callbacks.
//
// Usage: clustering [scale] [ranks]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/analytics.hpp"
#include "gen/distribute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/dodgr.hpp"
#include "graph/frozen.hpp"

namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;
namespace ta = tripoll::analytics;

int main(int argc, char** argv) {
  const std::uint32_t scale = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 12;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 4;

  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::rmat_generator rmat(gen::rmat_params{scale, 16, 0.55, 0.19, 0.19, 7, true});
    graph::graph_builder<graph::none, graph::none> builder(c);
    gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
      const auto e = rmat.edge_at(k);
      builder.add_edge(e.u, e.v);
    });
    graph::dodgr<graph::none, graph::none> g(c);
    builder.build_into(g);
    auto fz = graph::freeze(g);

    // Both analytics from ONE fused survey plan: the per-vertex
    // participation callback (clustering) and the per-edge support callback
    // (truss primitive) share a single dry-run/push/pull traversal, so the
    // wedge traffic is paid once instead of twice.
    comm::counting_set<ta::edge_key> support(c);
    const auto s = ta::clustering_and_support(fz, support);
    if (c.rank0()) {
      std::printf("triangles            : %llu\n", (unsigned long long)s.triangles);
      std::printf("global transitivity  : %.4f  (3|T| / %llu wedges)\n",
                  s.transitivity, (unsigned long long)s.total_wedges);
      std::printf("average local cc     : %.4f  (over %llu vertices with d>=2)\n",
                  s.average_local_cc, (unsigned long long)s.eligible_vertices);
    }

    // Edge support distribution (how trussy is the graph?).
    std::vector<std::uint64_t> local_supports;
    support.for_all_local([&](const ta::edge_key&, std::uint64_t n) {
      local_supports.push_back(n);
    });
    // Histogram of supports, merged on rank 0.
    std::vector<std::uint64_t> histogram(16, 0);
    for (const auto n : local_supports) {
      histogram[std::min<std::uint64_t>(n, histogram.size() - 1)] += 1;
    }
    auto per_rank = c.all_gather(histogram);
    if (c.rank0()) {
      std::printf("\nedge-support histogram (triangles per edge):\n");
      std::vector<std::uint64_t> total(histogram.size(), 0);
      for (const auto& h : per_rank) {
        for (std::size_t i = 0; i < h.size(); ++i) total[i] += h[i];
      }
      for (std::size_t i = 0; i < total.size(); ++i) {
        if (total[i] == 0) continue;
        std::printf("  support %s%zu: %llu edges\n",
                    i + 1 == total.size() ? ">=" : "", i, (unsigned long long)total[i]);
      }
    }
  });
  return 0;
}
