// bench_fig7_closure_scaling -- reproduces Fig. 7 (strong scaling of the
// closure-time survey, with per-phase breakdown) and Table 3 (average
// vertices pulled per rank as the rank count grows).
//
// Expected shapes: the survey keeps scaling further than plain counting on
// social-like topology (paper: "performance scales well out to 256 nodes
// for this problem"), and the per-phase breakdown shifts from pull-heavy at
// few ranks to almost entirely push-based at many ranks -- visible as the
// Table 3 pulls-per-rank collapse.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "gen/temporal.hpp"
#include "graph/frozen.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;

int main() {
  const int delta = tripoll::bench::scale_delta_from_env(0);
  const int max_ranks = tripoll::bench::max_ranks_from_env(16);

  gen::temporal_params params;
  params.scale = static_cast<std::uint32_t>(std::max(8, 15 + delta));

  tripoll::bench::print_header(
      "Fig. 7 + Table 3: strong scaling of the closure-time survey", "Fig. 7 / Table 3");
  std::printf("%6s %10s %10s %10s %10s %9s %12s\n", "ranks", "dry-run(s)",
              "push(s)", "pull(s)", "total(s)", "speedup", "pulls/rank");
  tripoll::bench::print_rule(76);

  double base_time = 0.0;
  for (int ranks = 2; ranks <= max_ranks; ranks *= 2) {
    tripoll::survey_result result;
    comm::runtime::run(ranks, [&](comm::communicator& c) {
      gen::temporal_graph g(c);
      gen::build_temporal_graph(c, g, params);
      auto fz = tripoll::graph::freeze(g);
      comm::counting_set<cb::closure_bin> counters(c);
      cb::closure_time_context ctx{&counters};
      result = cb::plan_for(fz, cb::closure_time_callback{}, ctx)
                   .run({tripoll::survey_mode::push_pull})
                   .slice(0);
      counters.finalize();
    });
    if (base_time == 0.0) base_time = result.total.seconds;
    std::printf("%6d %10.3f %10.3f %10.3f %10.3f %8.2fx %12.1f\n", ranks,
                result.dry_run.seconds, result.push.seconds, result.pull.seconds,
                result.total.seconds, base_time / result.total.seconds,
                result.pulls_per_rank(ranks));
  }
  std::printf("\n(Table 3 column = pulls/rank: average number of vertices "
              "pulled per rank,\n expected to fall steeply as ranks grow)\n");
  return 0;
}
