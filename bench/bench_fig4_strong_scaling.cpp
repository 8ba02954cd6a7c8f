// bench_fig4_strong_scaling -- reproduces Fig. 4 (strong scaling of the
// Push-Pull algorithm's three phases on four graphs).
//
// For each stand-in dataset and rank count: wall time of the dry-run
// (push-vs-pull decision pass), push phase and pull phase, plus the overall
// speedup relative to the smallest configuration.  The paper's shape: good
// scaling to mid rank counts, then stagnation as shrinking per-rank edge
// counts remove aggregation opportunities (the pull phase fades; cf. the
// Table 3 pulls-per-rank collapse).
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "graph/frozen.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;

int main() {
  const int delta = tripoll::bench::scale_delta_from_env(-1);
  const int max_ranks = tripoll::bench::max_ranks_from_env(16);

  tripoll::bench::print_header(
      "Fig. 4: strong scaling of Push-Pull phases (triangle counting)", "Fig. 4");
  std::printf("%-22s %6s %10s %10s %10s %10s %9s %10s\n", "graph", "ranks",
              "dry-run(s)", "push(s)", "pull(s)", "total(s)", "speedup", "pulls/rank");
  tripoll::bench::print_rule(96);

  std::vector<int> rank_counts;
  for (int r = 2; r <= max_ranks; r *= 2) rank_counts.push_back(r);

  for (const auto& spec : gen::standard_suite(delta)) {
    double base_time = 0.0;
    for (const int ranks : rank_counts) {
      tripoll::survey_result result;
      comm::runtime::run(ranks, [&](comm::communicator& c) {
        gen::plain_graph g(c);
        gen::build_dataset(c, g, spec);
        auto fz = tripoll::graph::freeze(g);
        cb::count_context ctx;
        result = tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                                          {tripoll::survey_mode::push_pull});
      });
      if (ranks == rank_counts.front()) base_time = result.total.seconds;
      std::printf("%-22s %6d %10.3f %10.3f %10.3f %10.3f %8.2fx %10.1f\n",
                  spec.name.c_str(), ranks, result.dry_run.seconds,
                  result.push.seconds, result.pull.seconds, result.total.seconds,
                  base_time / result.total.seconds, result.pulls_per_rank(ranks));
    }
    tripoll::bench::print_rule(96);
  }
  return 0;
}
