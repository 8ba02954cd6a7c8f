// bench_ablation_partition -- ablation of vertex-id randomization
// (DESIGN.md choice M4; paper Sec. 4.2 uses "random or cyclic partitionings"
// and relies on the DODGr construction to tame hub imbalance).
//
// Compares survey time and per-rank load spread on the same R-MAT topology
// with ids scrambled (degree-decorrelated placement, the default) vs
// unscrambled (R-MAT's hot low ids cluster, emulating a naive contiguous-id
// hash that correlates with degree).
#include <algorithm>
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

namespace {

struct run_metrics {
  double seconds = 0.0;
  double edge_imbalance = 0.0;  ///< max/mean out-edges per rank
};

run_metrics run_once(int ranks, std::uint32_t scale, bool scramble) {
  run_metrics m;
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::rmat_generator rmat(
        gen::rmat_params{scale, 16, 0.57, 0.19, 0.19, 2024, scramble});
    graph::graph_builder<graph::none, graph::none> builder(c);
    gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
      const auto e = rmat.edge_at(k);
      builder.add_edge(e.u, e.v);
    });
    gen::plain_graph g(c);
    builder.build_into(g);
    auto fz = graph::freeze(g);

    std::uint64_t local_edges = 0;
    g.for_all_local([&](const graph::vertex_id&, const auto& rec) {
      local_edges += rec.adj.size();
    });
    const auto per_rank = c.all_gather(local_edges);

    cb::count_context ctx;
    const auto result = tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                                                 {tripoll::survey_mode::push_pull});
    if (c.rank0()) {
      m.seconds = result.total.seconds;
      const auto max_e = *std::max_element(per_rank.begin(), per_rank.end());
      std::uint64_t total = 0;
      for (const auto e : per_rank) total += e;
      m.edge_imbalance = static_cast<double>(max_e) /
                         (static_cast<double>(total) / static_cast<double>(ranks));
    }
  });
  return m;
}

}  // namespace

int main() {
  const int delta = tripoll::bench::scale_delta_from_env(-1);
  const int ranks = std::min(tripoll::bench::max_ranks_from_env(), 16);
  const auto scale = static_cast<std::uint32_t>(std::max(8, 16 + delta));

  tripoll::bench::print_header(
      "Ablation: vertex-id randomization vs degree-correlated placement",
      "Sec. 4.2 design choice");
  std::printf("R-MAT scale %u, %d ranks\n\n", scale, ranks);
  std::printf("%-26s %10s %18s\n", "placement", "time(s)", "edge imbalance");
  tripoll::bench::print_rule(58);

  const auto scrambled = run_once(ranks, scale, true);
  std::printf("%-26s %10.3f %17.2fx\n", "scrambled ids (default)", scrambled.seconds,
              scrambled.edge_imbalance);
  const auto raw = run_once(ranks, scale, false);
  std::printf("%-26s %10.3f %17.2fx\n", "raw R-MAT ids", raw.seconds,
              raw.edge_imbalance);
  std::printf("\n(imbalance = max/mean DODGr out-edges per rank; the DODGr\n"
              "orientation bounds hub out-degrees, so both stay usable -- the\n"
              "paper's argument for settling on cheap random placement)\n");
  return 0;
}
