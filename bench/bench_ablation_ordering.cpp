// bench_ablation_ordering -- degree vs degeneracy vertex ordering
// (graph/ordering.hpp; Pashanasangi & Seshadhri's degeneracy-ordering
// insight applied to TriPoll's DODGr).
//
// For each preset (RMAT social, Reddit-like temporal, hub-heavy web) and
// each --ordering policy, reports the census columns the ordering controls
// (|W+| = wedge checks, d+max) plus build time (the peeling pass is part of
// construction), survey time and communication volume, and cross-checks
// that both orderings find the same global triangle count.
//
// Accepts --ordering {degree,degeneracy} to run one policy only; default
// runs both and prints the reduction factors.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/presets.hpp"
#include "gen/temporal.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;

namespace {

struct run_metrics {
  tripoll::graph::graph_census census{};
  double build_seconds = 0.0;
  double survey_seconds = 0.0;
  std::uint64_t survey_volume = 0;
  std::uint64_t triangles = 0;
  std::uint64_t degeneracy = 0;  ///< 0 under degree order
};

template <typename BuildFn>
run_metrics run_once(int ranks, graph::ordering_policy ordering, BuildFn&& build) {
  run_metrics m;
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    const auto t0 = std::chrono::steady_clock::now();
    gen::plain_graph g(c);
    const auto degeneracy = build(c, g, ordering);
    const double build_s = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();

    auto fz = graph::freeze(g);
    cb::count_context ctx;
    const auto result = tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                                                 {tripoll::survey_mode::push_pull});
    const auto triangles = ctx.global_count(c);
    const auto census = g.census();
    const auto max_build = c.all_reduce_max(build_s);
    if (c.rank0()) {
      m.census = census;
      m.build_seconds = max_build;
      m.survey_seconds = result.total.seconds;
      m.survey_volume = result.total.volume_bytes;
      m.triangles = triangles;
      m.degeneracy = degeneracy;
    }
  });
  return m;
}

void print_row(const char* ordering, const run_metrics& m) {
  std::printf("%-12s %12s %8llu %9.3f %9.3f %11s %12s\n", ordering,
              tripoll::bench::human_count(m.census.wedge_checks).c_str(),
              (unsigned long long)m.census.max_out_degree, m.build_seconds,
              m.survey_seconds, tripoll::bench::human_bytes(m.survey_volume).c_str(),
              tripoll::bench::human_count(m.triangles).c_str());
}

void print_preset(const char* name, const run_metrics& degree,
                  const run_metrics& core) {
  std::printf("\n-- %s --\n", name);
  std::printf("%-12s %12s %8s %9s %9s %11s %12s\n", "ordering", "|W+|", "d+max",
              "build(s)", "survey(s)", "volume", "triangles");
  tripoll::bench::print_rule(80);
  print_row("degree", degree);
  print_row("degeneracy", core);
  const double wedge_ratio =
      core.census.wedge_checks > 0
          ? static_cast<double>(degree.census.wedge_checks) /
                static_cast<double>(core.census.wedge_checks)
          : 0.0;
  std::printf("degeneracy %llu; |W+| reduction %.3fx; counts %s\n",
              (unsigned long long)core.degeneracy, wedge_ratio,
              degree.triangles == core.triangles ? "identical" : "MISMATCH!");
}

}  // namespace

int main(int argc, char** argv) {
  const int delta = tripoll::bench::scale_delta_from_env(-1);
  const int ranks = std::min(tripoll::bench::max_ranks_from_env(), 8);
  bool run_degree = true, run_core = true;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ordering") == 0) {
      const auto parsed = graph::parse_ordering(argv[i + 1]);
      if (!parsed) {
        std::fprintf(stderr, "unknown ordering '%s' (degree|degeneracy)\n", argv[i + 1]);
        return 2;
      }
      run_degree = *parsed == graph::ordering_policy::degree;
      run_core = !run_degree;
    }
  }

  tripoll::bench::print_header(
      "Ablation: degree vs degeneracy vertex ordering",
      "Pashanasangi & Seshadhri degeneracy-ordering insight, Sec. 3/4.3 order");
  std::printf("%d ranks, scale delta %d\n", ranks, delta);

  const auto rmat_spec = gen::livejournal_like(delta);
  const auto build_rmat = [&](comm::communicator& c, gen::plain_graph& g,
                              graph::ordering_policy ordering) {
    graph::graph_builder<graph::none, graph::none> builder(c, ordering);
    const gen::rmat_generator rmat(rmat_spec.rmat);
    gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
      const auto e = rmat.edge_at(k);
      builder.add_edge(e.u, e.v);
    });
    builder.build_into(g);
    return builder.peel_stats().degeneracy;
  };

  gen::temporal_params temporal;
  temporal.scale = static_cast<std::uint32_t>(std::max(8, 13 + delta));
  const auto build_temporal = [&](comm::communicator& c, gen::plain_graph& g,
                                  graph::ordering_policy ordering) {
    // Timestamps are irrelevant to the ordering ablation; build plain.
    graph::graph_builder<graph::none, graph::none> builder(c, ordering);
    const gen::temporal_generator tgen(temporal);
    gen::for_rank_slice(c, tgen.num_edges(), [&](std::uint64_t k) {
      const auto e = tgen.edge_at(k);
      builder.add_edge(e.u, e.v);
    });
    builder.build_into(g);
    return builder.peel_stats().degeneracy;
  };

  const auto web_spec = gen::standard_suite(delta)[3];  // webcc12-host-like
  const auto build_web = [&](comm::communicator& c, gen::plain_graph& g,
                             graph::ordering_policy ordering) {
    graph::graph_builder<graph::none, graph::none> builder(c, ordering);
    const gen::web_generator wgen(web_spec.web);
    gen::for_rank_slice(c, wgen.num_edges(), [&](std::uint64_t k) {
      const auto e = wgen.edge_at(k);
      builder.add_edge(e.u, e.v);
    });
    builder.build_into(g);
    return builder.peel_stats().degeneracy;
  };

  const auto run_pair = [&](const char* name, auto&& build) {
    run_metrics degree, core;
    if (run_degree) degree = run_once(ranks, graph::ordering_policy::degree, build);
    if (run_core) core = run_once(ranks, graph::ordering_policy::degeneracy, build);
    if (run_degree && run_core) {
      print_preset(name, degree, core);
    } else {
      std::printf("\n-- %s --\n", name);
      print_row(run_degree ? "degree" : "degeneracy", run_degree ? degree : core);
    }
  };

  run_pair(("rmat social (" + rmat_spec.name + ")").c_str(), build_rmat);
  run_pair("temporal (reddit-like)", build_temporal);
  run_pair(("web (" + web_spec.name + ")").c_str(), build_web);

  std::printf("\n(|W+| = sum_v C(d+(v),2), the survey's wedge-check total; the\n"
              "degeneracy order bounds every d+ by the core number, so the\n"
              "reduction grows with degree skew)\n");
  return 0;
}
