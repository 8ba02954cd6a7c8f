// bench_table4_push_pull -- reproduces Table 4 (Push-Only vs Push-Pull:
// runtime AND measured communication volume across rank counts).
//
// The paper's shapes this bench checks (see EXPERIMENTS.md):
//  * Push-Only volume is nearly flat in the rank count; Push-Pull volume
//    *grows* with ranks (shrinking per-rank aggregation opportunities).
//  * On hub-heavy web graphs Push-Pull slashes volume (paper: >10x on
//    web-cc12) and wins big on runtime (~6x there).
//  * On Friendster-like social graphs there is little to pull: the dry-run
//    overhead makes Push-Pull comparable or slower, and its volume can
//    overtake Push-Only at high rank counts.
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
using tripoll::bench::human_bytes;

int main() {
  const int delta = tripoll::bench::scale_delta_from_env(-1);
  const int max_ranks = tripoll::bench::max_ranks_from_env(16);

  tripoll::bench::print_header(
      "Table 4: Push-Only vs Push-Pull, runtime and communication volume", "Table 4");

  std::vector<int> rank_counts;
  for (int r = 2; r <= max_ranks; r *= 2) rank_counts.push_back(r);

  for (const auto& spec : gen::standard_suite(delta)) {
    std::printf("%s\n", spec.name.c_str());
    std::printf("  %-28s", "measurement");
    for (const int r : rank_counts) std::printf(" %11d", r);
    std::printf("  (ranks)\n");
    tripoll::bench::print_rule(96);

    std::vector<tripoll::survey_result> push_only, push_pull;
    for (const int ranks : rank_counts) {
      comm::runtime::run(ranks, [&](comm::communicator& c) {
        gen::plain_graph g(c);
        gen::build_dataset(c, g, spec);
        auto fz = tripoll::graph::freeze(g);
        cb::count_context ctx_po;
        const auto po = tripoll::triangle_survey(fz, cb::count_callback{}, ctx_po,
                                                 {tripoll::survey_mode::push_only});
        cb::count_context ctx_pp;
        const auto pp = tripoll::triangle_survey(fz, cb::count_callback{}, ctx_pp,
                                                 {tripoll::survey_mode::push_pull});
        if (c.rank0()) {
          push_only.push_back(po);
          push_pull.push_back(pp);
        }
      });
    }

    std::printf("  %-28s", "comm volume  Push-Only");
    for (const auto& r : push_only) std::printf(" %11s", human_bytes(r.total.volume_bytes).c_str());
    std::printf("\n  %-28s", "             Push-Pull");
    for (const auto& r : push_pull) std::printf(" %11s", human_bytes(r.total.volume_bytes).c_str());
    std::printf("\n  %-28s", "runtime (s)  Push-Only");
    for (const auto& r : push_only) std::printf(" %11.3f", r.total.seconds);
    std::printf("\n  %-28s", "             Push-Pull");
    for (const auto& r : push_pull) std::printf(" %11.3f", r.total.seconds);
    std::printf("\n  %-28s", "volume ratio (PO/PP)");
    for (std::size_t i = 0; i < push_only.size(); ++i) {
      const double ratio = push_pull[i].total.volume_bytes > 0
                               ? static_cast<double>(push_only[i].total.volume_bytes) /
                                     static_cast<double>(push_pull[i].total.volume_bytes)
                               : 0.0;
      std::printf(" %10.2fx", ratio);
    }
    std::printf("\n");
    tripoll::bench::print_rule(96);
  }
  return 0;
}
