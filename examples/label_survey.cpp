// label_survey -- the paper's Alg. 3: distribution of maximum edge labels
// over triangles whose three vertex labels are pairwise distinct.
//
// Vertices carry a small categorical label (think buyer/seller/moderator),
// edges carry an interaction-type label.  The survey asks: "among triangles
// of three differently-labeled users, which interaction type dominates?"
// -- exactly the style of exploratory question TriPoll's callback interface
// is built for.
//
// Usage: label_survey [scale] [ranks]
#include <cstdio>
#include <cstdlib>

#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/dodgr.hpp"
#include "graph/frozen.hpp"
#include "serial/hash.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;

namespace {

constexpr std::uint32_t kVertexLabels = 4;  // e.g. buyer/seller/both/moderator
constexpr std::uint32_t kEdgeLabels = 6;    // e.g. message/purchase/rating/...

std::uint32_t vertex_label(graph::vertex_id v) {
  return static_cast<std::uint32_t>(tripoll::serial::splitmix64(v ^ 0xAB) % kVertexLabels);
}

std::uint32_t edge_label(graph::vertex_id u, graph::vertex_id v) {
  const auto key = tripoll::serial::hash_combine(tripoll::serial::splitmix64(u), v);
  return static_cast<std::uint32_t>(key % kEdgeLabels);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t scale = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 13;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 4;

  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::rmat_generator rmat(gen::rmat_params{scale, 16, 0.55, 0.19, 0.19, 77, true});
    graph::graph_builder<std::uint32_t, std::uint32_t> builder(c);
    gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
      const auto e = rmat.edge_at(k);
      builder.add_edge(e.u, e.v, edge_label(std::min(e.u, e.v), std::max(e.u, e.v)));
    });
    gen::for_rank_slice(c, rmat.num_vertices(), [&](std::uint64_t v) {
      builder.add_vertex_meta(v, vertex_label(v));
    });

    graph::dodgr<std::uint32_t, std::uint32_t> g(c);
    builder.build_into(g);
    auto fz = graph::freeze(g);

    // Plan API: Alg. 3 needs every label, so its declared projections are
    // identity -- the plan form still buys fusion if more analyses are
    // .add()ed onto the same traversal.
    comm::counting_set<std::uint32_t> counters(c);
    cb::max_edge_label_context<std::uint32_t> ctx{&counters};
    const auto result = cb::plan_for(fz, cb::max_edge_label_callback{}, ctx)
                            .run({tripoll::survey_mode::push_pull})
                            .slice(0);
    counters.finalize();
    const auto dist = counters.gather_all();

    if (c.rank0()) {
      std::printf("triangles surveyed: %llu (%.3fs)\n",
                  (unsigned long long)result.triangles_found, result.total.seconds);
      std::printf("max-edge-label distribution over label-distinct triangles:\n");
      std::uint64_t total = 0;
      for (const auto& [label, n] : dist) total += n;
      for (const auto& [label, n] : dist) {
        std::printf("  label %u: %10llu (%.1f%%)\n", label, (unsigned long long)n,
                    total > 0 ? 100.0 * static_cast<double>(n) / static_cast<double>(total)
                              : 0.0);
      }
    }
  });
  return 0;
}
