// bench_table1_datasets -- reproduces Table 1 (dataset census).
//
// For every stand-in graph: |V|, |E| (directed, paper convention), |T|,
// d_max and d_max^+, plus |W+| (the wedge-check work driver used by the
// weak-scaling metric).  |T| is computed by a TriPoll survey.
#include <cstdio>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "gen/temporal.hpp"
#include "graph/frozen.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
using tripoll::bench::human_count;

int main() {
  const int delta = tripoll::bench::scale_delta_from_env();
  const int ranks = std::min(tripoll::bench::max_ranks_from_env(), 16);

  tripoll::bench::print_header("Table 1: datasets", "Table 1");
  std::printf("%-22s %10s %12s %12s %8s %8s %12s\n", "graph", "|V|", "|E|(dir)",
              "|T|", "dmax", "dmax+", "|W+|");
  tripoll::bench::print_rule(92);

  auto suite = gen::standard_suite(delta);
  suite.insert(suite.begin(), gen::livejournal_like(delta));

  for (const auto& spec : suite) {
    comm::runtime::run(ranks, [&](comm::communicator& c) {
      gen::plain_graph g(c);
      gen::build_dataset(c, g, spec);
      auto fz = tripoll::graph::freeze(g);
      const auto census = g.census();
      cb::count_context ctx;
      tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                               {tripoll::survey_mode::push_pull});
      const auto triangles = ctx.global_count(c);
      if (c.rank0()) {
        std::printf("%-22s %10s %12s %12s %8llu %8llu %12s\n", spec.name.c_str(),
                    human_count(census.num_vertices).c_str(),
                    human_count(census.num_directed_edges).c_str(),
                    human_count(triangles).c_str(),
                    (unsigned long long)census.max_degree,
                    (unsigned long long)census.max_out_degree,
                    human_count(census.wedge_checks).c_str());
      }
    });
  }

  // The Reddit-like temporal graph row (the paper's last Table 1 row).
  {
    gen::temporal_params params;
    params.scale = static_cast<std::uint32_t>(std::max(4, 15 + delta));
    comm::runtime::run(ranks, [&](comm::communicator& c) {
      gen::temporal_graph g(c);
      gen::build_temporal_graph(c, g, params);
      auto fz = tripoll::graph::freeze(g);
      const auto census = g.census();
      cb::count_context ctx;
      tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                               {tripoll::survey_mode::push_pull});
      const auto triangles = ctx.global_count(c);
      if (c.rank0()) {
        std::printf("%-22s %10s %12s %12s %8llu %8llu %12s\n", "reddit-like",
                    human_count(census.num_vertices).c_str(),
                    human_count(census.num_directed_edges).c_str(),
                    human_count(triangles).c_str(),
                    (unsigned long long)census.max_degree,
                    (unsigned long long)census.max_out_degree,
                    human_count(census.wedge_checks).c_str());
      }
    });
  }
  return 0;
}
