// bench_fig6_reddit_closure -- reproduces Fig. 6 (distribution of triangle
// closing times and joint closing-vs-opening distribution) on the
// Reddit-like temporal graph.
//
// Expected shape: humans close triangles over a wide range of long log2
// bins (wedges form faster than triangles close; mass concentrates at
// close >= open), while the bot subpopulation contributes a separated
// fast-closure mode in the lowest bins -- the "coordinated machine
// activity" signature the paper's narrative anticipates.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

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
  const int ranks = std::min(tripoll::bench::max_ranks_from_env(), 16);

  gen::temporal_params params;
  params.scale = static_cast<std::uint32_t>(std::max(8, 15 + delta));
  params.bot_fraction = 0.03;

  tripoll::bench::print_header(
      "Fig. 6: triangle closure-time distributions (Reddit-like graph)", "Fig. 6");

  std::map<cb::closure_bin, std::uint64_t> joint;
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
    auto gathered = counters.gather_all();  // collective: all ranks participate
    if (c.rank0()) joint = std::move(gathered);
  });

  std::printf("surveyed %s triangles in %.3fs on %d ranks\n\n",
              tripoll::bench::human_count(result.triangles_found).c_str(),
              result.total.seconds, ranks);

  std::map<std::uint32_t, std::uint64_t> close_marginal, open_marginal;
  for (const auto& [bin, n] : joint) {
    open_marginal[bin.first] += n;
    close_marginal[bin.second] += n;
  }

  std::printf("closing-time distribution (bin = ceil(log2(seconds)); log-scaled bars):\n");
  for (const auto& [bin, n] : close_marginal) {
    std::printf("  close 2^%-2u s %12llu  ", bin, (unsigned long long)n);
    const int stars = n > 0 ? 1 + static_cast<int>(4.0 * std::log10(static_cast<double>(n))) : 0;
    for (int i = 0; i < std::min(stars, 60); ++i) std::printf("*");
    std::printf("\n");
  }

  std::printf("\nopening-time distribution:\n");
  for (const auto& [bin, n] : open_marginal) {
    std::printf("  open  2^%-2u s %12llu\n", bin, (unsigned long long)n);
  }

  std::printf("\njoint distribution rows=open cols=close, cells = ceil(log10(count)):\n");
  std::uint32_t max_bin = 0;
  for (const auto& [bin, n] : joint) max_bin = std::max({max_bin, bin.first, bin.second});
  std::printf("       ");
  for (std::uint32_t cl = 0; cl <= max_bin; ++cl) std::printf("%3u", cl % 10);
  std::printf("\n");
  for (std::uint32_t op = 0; op <= max_bin; ++op) {
    std::printf("  %4u ", op);
    for (std::uint32_t cl = 0; cl <= max_bin; ++cl) {
      const auto it = joint.find({op, cl});
      if (it == joint.end()) {
        std::printf("  .");
      } else {
        std::printf("%3d", static_cast<int>(std::log10(static_cast<double>(it->second))) + 1);
      }
    }
    std::printf("\n");
  }
  std::printf("\n(support only at close >= open, a structural invariant: "
              "t3-t1 >= t2-t1)\n");
  return 0;
}
