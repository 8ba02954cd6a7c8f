// fqdn_survey -- the paper's Web Data Commons analysis (Sec. 5.8) on the
// synthetic web graph.
//
// Pages carry their fully-qualified domain name as *string* vertex metadata
// (variable length, serialized without padding).  The survey counts
// 3-tuples of FQDNs over triangles whose three FQDNs are pairwise distinct,
// then post-processes the result around a focus domain ("amazon.com"),
// printing the co-occurrence distribution that Fig. 8 visualizes.
//
// Usage: fqdn_survey [scale] [ranks] [focus-domain]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "gen/web.hpp"
#include "graph/frozen.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;

int main(int argc, char** argv) {
  const std::uint32_t scale = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 13;
  const int ranks = argc > 2 ? std::atoi(argv[2]) : 4;
  const std::string focus = argc > 3 ? argv[3] : "amazon.com";

  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::web_params params;
    params.scale = scale;

    gen::web_graph g(c);
    gen::build_web_graph(c, g, params);
    auto fz = tripoll::graph::freeze(g);

    // Plan with the callback's declared projections: the FQDN strings ship
    // (vertex identity projection) but edge metadata is dropped.  Received
    // FQDNs reach the callback as string_views into the transport payload;
    // nothing is copied until a tuple actually survives the distinctness
    // filter.
    comm::counting_set<cb::fqdn_tuple> counters(c);
    cb::fqdn_tuple_context ctx{&counters};
    const auto result = cb::plan_for(fz, cb::fqdn_tuple_callback{}, ctx)
                            .run({tripoll::survey_mode::push_pull})
                            .slice(0);
    counters.finalize();

    const auto distinct_triangles = c.all_reduce_sum(ctx.distinct_fqdn_triangles);
    const auto unique_tuples = counters.global_size();
    const auto tuples = counters.gather_all();

    if (c.rank0()) {
      std::printf("triangles: %llu total, %llu with 3 distinct FQDNs, "
                  "%llu unique FQDN 3-tuples (%.3fs)\n",
                  (unsigned long long)result.triangles_found,
                  (unsigned long long)distinct_triangles,
                  (unsigned long long)unique_tuples, result.total.seconds);

      // Post-processing (paper: done on a single machine after the survey):
      // all tuples involving the focus domain, aggregated to pair counts.
      std::map<std::pair<std::string, std::string>, std::uint64_t> pairs;
      for (const auto& [tuple, n] : tuples) {
        const auto& [a, b, d] = tuple;
        if (a == focus) {
          pairs[{b, d}] += n;
        } else if (b == focus) {
          pairs[{a, d}] += n;
        } else if (d == focus) {
          pairs[{a, b}] += n;
        }
      }
      std::vector<std::pair<std::uint64_t, std::pair<std::string, std::string>>> top;
      top.reserve(pairs.size());
      for (const auto& [pr, n] : pairs) top.emplace_back(n, pr);
      std::sort(top.rbegin(), top.rend());

      std::printf("\ntop FQDN pairs co-occurring with \"%s\" in triangles:\n",
                  focus.c_str());
      const std::size_t show = std::min<std::size_t>(top.size(), 15);
      for (std::size_t i = 0; i < show; ++i) {
        std::printf("  %8llu  %s + %s\n", (unsigned long long)top[i].first,
                    top[i].second.first.c_str(), top[i].second.second.c_str());
      }
      if (top.empty()) {
        std::printf("  (none -- try a larger scale or a different focus domain)\n");
      }
    }
  });
  return 0;
}
