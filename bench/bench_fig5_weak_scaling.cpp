// bench_fig5_weak_scaling -- reproduces Fig. 5 (weak scaling on R-MAT).
//
// One R-MAT scale step per rank doubling (the paper uses scale 24 per node
// up to scale 32 on 256 nodes; this single-node run uses a smaller base).
// The vertical axis is the paper's work rate |W+| / (N * t): wedge checks
// per rank-second.  Expected shape: the rate decays as the graph grows,
// because a fixed number of local edges shares ever fewer common targets,
// eroding the aggregation the Push-Pull algorithm exploits.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/presets.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;

int main() {
  const int delta = tripoll::bench::scale_delta_from_env(0);
  const int max_ranks = tripoll::bench::max_ranks_from_env(16);
  const auto base_scale = static_cast<std::uint32_t>(std::max(8, 13 + delta));

  tripoll::bench::print_header(
      "Fig. 5: weak scaling, R-MAT (one scale step per rank doubling)", "Fig. 5");
  std::printf("%6s %7s %12s %10s %12s %16s\n", "ranks", "scale", "|W+|",
              "time(s)", "|T|", "|W+|/(N*t)");
  tripoll::bench::print_rule(70);

  for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
    std::uint32_t scale = base_scale;
    for (int r = ranks; r > 1; r /= 2) ++scale;

    tripoll::survey_result result;
    graph::graph_census census{};
    std::uint64_t triangles = 0;
    comm::runtime::run(ranks, [&](comm::communicator& c) {
      gen::rmat_generator rmat(gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, 4242, true});
      graph::graph_builder<graph::none, graph::none> builder(c);
      gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
        const auto e = rmat.edge_at(k);
        builder.add_edge(e.u, e.v);
      });
      gen::plain_graph g(c);
      builder.build_into(g);
      auto fz = graph::freeze(g);
      census = g.census();
      cb::count_context ctx;
      result = tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                                        {tripoll::survey_mode::push_pull});
      triangles = ctx.global_count(c);
    });

    const double rate = static_cast<double>(census.wedge_checks) /
                        (static_cast<double>(ranks) * result.total.seconds);
    std::printf("%6d %7u %12s %10.3f %12s %16s\n", ranks, scale,
                tripoll::bench::human_count(census.wedge_checks).c_str(),
                result.total.seconds,
                tripoll::bench::human_count(triangles).c_str(),
                tripoll::bench::human_count(static_cast<std::uint64_t>(rate)).c_str());
  }
  return 0;
}
