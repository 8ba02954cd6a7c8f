// closure_times -- the paper's Reddit experiment (Sec. 5.7, Alg. 4) on the
// synthetic temporal graph.
//
// Edge metadata carries the first-contact timestamp between two authors.
// For every triangle the callback sorts the three timestamps t1<=t2<=t3 and
// increments a distributed counting set at the log2-binned pair
// (wedge-opening time t2-t1, triangle-closing time t3-t1).  The program
// prints the 1-D closing-time distribution and the joint distribution the
// paper plots in Fig. 6.
//
// Usage: closure_times [scale] [ranks]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

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

int main(int argc, char** argv) {
  const std::uint32_t scale = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 13;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 4;

  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::temporal_params params;
    params.scale = scale;

    gen::temporal_graph g(c);
    gen::build_temporal_graph(c, g, params);
    auto fz = tripoll::graph::freeze(g);

    // Plan with the callback's declared minimal projections: vertex metadata
    // is dropped and edge metadata ships as its 8-byte timestamp -- here the
    // edges already ARE uint64 timestamps, but the same plan runs unchanged
    // (and saves the wire) when edges carry rich structs.
    comm::counting_set<cb::closure_bin> counters(c);
    cb::closure_time_context ctx{&counters};
    const auto result = cb::plan_for(fz, cb::closure_time_callback{}, ctx)
                            .run({tripoll::survey_mode::push_pull})
                            .slice(0);
    counters.finalize();
    const auto joint = counters.gather_all();

    if (c.rank0()) {
      std::printf("surveyed %llu triangles in %.3fs\n",
                  (unsigned long long)result.triangles_found, result.total.seconds);

      // 1-D closing-time distribution (marginal over opening time).
      std::map<std::uint32_t, std::uint64_t> close_marginal;
      for (const auto& [bin, n] : joint) close_marginal[bin.second] += n;
      std::printf("\nclosing-time distribution (bin = ceil(log2(seconds))):\n");
      for (const auto& [bin, n] : close_marginal) {
        std::printf("  2^%-2u s  %10llu  ", bin, (unsigned long long)n);
        const int stars = n > 0 ? 1 + static_cast<int>(3.0 * std::log10((double)n)) : 0;
        for (int i = 0; i < stars && i < 60; ++i) std::printf("*");
        std::printf("\n");
      }

      // Joint (open, close) distribution, the Fig. 6 heat map as text.
      std::printf("\njoint distribution rows=open cols=close (log10 counts):\n");
      std::uint32_t max_bin = 0;
      for (const auto& [bin, n] : joint) {
        max_bin = std::max({max_bin, bin.first, bin.second});
      }
      std::printf("      ");
      for (std::uint32_t cl = 0; cl <= max_bin; ++cl) std::printf("%3u", cl);
      std::printf("\n");
      for (std::uint32_t op = 0; op <= max_bin; ++op) {
        std::printf("  %3u ", op);
        for (std::uint32_t cl = 0; cl <= max_bin; ++cl) {
          const auto it = joint.find({op, cl});
          if (it == joint.end()) {
            std::printf("  .");
          } else {
            std::printf("%3d", static_cast<int>(std::log10((double)it->second) + 1));
          }
        }
        std::printf("\n");
      }
    }
  });
  return 0;
}
