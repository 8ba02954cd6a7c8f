// bench_table2_comparison -- reproduces Table 2 (end-to-end runtime of
// TriPoll vs tailored distributed triangle counters).
//
// Comparators (re-implemented, see src/baselines):
//  * Pearce et al. [42]  -- asynchronous per-wedge closure queries
//  * Tom & Karypis [58]  -- 2D masked-SpGEMM (requires square rank counts)
//  * TriC [20]           -- contiguous 1D partitions + batched supersteps
// plus the serial and OpenMP shared-memory references.
//
// Expected shape (paper): TriPoll comparable or better than Pearce et al.
// everywhere (1.8-6.8x); Tom-2D fastest on mid-size social graphs but
// unscalable past its grid; TriC slowest.  All counters must agree on |T|.
#include <cstdio>
#include <vector>

#include "baselines/pearce_tc.hpp"
#include "baselines/serial_tc.hpp"
#include "baselines/tom2d_tc.hpp"
#include "baselines/tric_tc.hpp"
#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "graph/frozen.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace tb = tripoll::baselines;

int main() {
  const int delta = tripoll::bench::scale_delta_from_env(-1);
  // 16 is a perfect square, so every comparator can run, like the paper's
  // 1024-core configuration chosen for Tom et al.'s square-grid demand.
  const int ranks = 16;

  tripoll::bench::print_header(
      "Table 2: end-to-end runtime comparison (seconds, 16 ranks)", "Table 2");
  std::printf("%-22s %10s %10s %10s %10s %10s %10s %12s\n", "graph", "TriPoll",
              "TriPollPO", "Pearce", "Tom2D", "TriC", "OpenMP", "|T| (agree)");
  tripoll::bench::print_rule(104);

  auto suite = gen::standard_suite(delta);
  suite.insert(suite.begin(), gen::livejournal_like(delta));

  for (const auto& spec : suite) {
    double t_pp = 0, t_po = 0, t_pearce = 0, t_tom = 0, t_tric = 0;
    std::uint64_t count_pp = 0;
    bool agree = true;

    comm::runtime::run(ranks, [&](comm::communicator& c) {
      gen::plain_graph g(c);
      gen::build_dataset(c, g, spec);
      auto fz = tripoll::graph::freeze(g);

      cb::count_context ctx_pp;
      const auto pp = tripoll::triangle_survey(fz, cb::count_callback{}, ctx_pp,
                                               {tripoll::survey_mode::push_pull});
      const auto n_pp = ctx_pp.global_count(c);

      cb::count_context ctx_po;
      const auto po = tripoll::triangle_survey(fz, cb::count_callback{}, ctx_po,
                                               {tripoll::survey_mode::push_only});
      const auto n_po = ctx_po.global_count(c);

      const auto pearce = tb::pearce_triangle_count(c, g);
      const auto tom = tb::tom2d_triangle_count(c, g);
      const auto tric = tb::tric_triangle_count(c, g);

      if (c.rank0()) {
        t_pp = pp.total.seconds;
        t_po = po.total.seconds;
        t_pearce = pearce.seconds;
        t_tom = tom.seconds;
        t_tric = tric.seconds;
        count_pp = n_pp;
        agree = n_pp == n_po && n_pp == pearce.triangles && n_pp == tom.triangles &&
                n_pp == tric.triangles;
      }
    });

    // Shared-memory reference on the same edge stream (single process).
    double t_omp = 0;
    {
      std::vector<tripoll::graph::edge> edges;
      if (spec.kind == gen::dataset_kind::rmat) {
        const gen::rmat_generator g2(spec.rmat);
        for (std::uint64_t k = 0; k < g2.num_edges(); ++k) edges.push_back(g2.edge_at(k));
      } else {
        const gen::web_generator g2(spec.web);
        for (std::uint64_t k = 0; k < g2.num_edges(); ++k) {
          const auto e = g2.edge_at(k);
          edges.push_back({e.u, e.v});
        }
      }
      const tb::ordered_csr csr(edges);
      const auto t0 = std::chrono::steady_clock::now();
      const auto n_omp = tb::openmp_triangle_count(csr);
      t_omp = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      agree = agree && n_omp == count_pp;
    }

    std::printf("%-22s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f %10s %s\n",
                spec.name.c_str(), t_pp, t_po, t_pearce, t_tom, t_tric, t_omp,
                tripoll::bench::human_count(count_pp).c_str(),
                agree ? "yes" : "MISMATCH");
  }
  std::printf("\nTriPollPO = Push-Only engine. All columns count the same graphs;\n"
              "the |T| column reports the TriPoll count and whether all agree.\n");
  return 0;
}
