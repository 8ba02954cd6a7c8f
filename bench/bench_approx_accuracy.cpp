// bench_approx_accuracy -- approximate vs exact triangle counting.
//
// Supports the paper's Sec. 1 framing: "techniques that approximate
// triangle counts [often] suffice", but metadata surveys need every
// triangle.  This bench quantifies the trade on the stand-in datasets:
// wedge-sampling error and time vs the exact TriPoll survey.
#include <cmath>
#include <cstdio>

#include "baselines/approx_tc.hpp"
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
  const int ranks = std::min(tripoll::bench::max_ranks_from_env(), 8);

  tripoll::bench::print_header(
      "Approximate (wedge sampling) vs exact triangle counting",
      "Sec. 1 approximation discussion");
  std::printf("%-22s %10s %12s %12s %8s %10s %10s\n", "graph", "samples", "exact |T|",
              "estimate", "err%", "exact(s)", "approx(s)");
  tripoll::bench::print_rule(92);

  for (const auto& spec : gen::standard_suite(delta)) {
    for (const std::uint64_t samples : {10'000ull, 100'000ull, 1'000'000ull}) {
      std::uint64_t exact = 0;
      double exact_s = 0, approx_s = 0, estimate = 0;
      comm::runtime::run(ranks, [&](comm::communicator& c) {
        gen::plain_graph g(c);
        gen::build_dataset(c, g, spec);
        auto fz = tripoll::graph::freeze(g);
        cb::count_context ctx;
        const auto r = tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                                                {tripoll::survey_mode::push_pull});
        const auto n = ctx.global_count(c);
        const auto a = tb::approx_triangle_count(c, g, samples, 99);
        if (c.rank0()) {
          exact = n;
          exact_s = r.total.seconds;
          approx_s = a.seconds;
          estimate = a.estimate;
        }
      });
      const double err =
          exact > 0 ? 100.0 * std::abs(estimate - static_cast<double>(exact)) /
                          static_cast<double>(exact)
                    : 0.0;
      std::printf("%-22s %10llu %12s %12.0f %7.2f%% %10.3f %10.3f\n", spec.name.c_str(),
                  (unsigned long long)samples,
                  tripoll::bench::human_count(exact).c_str(), estimate, err, exact_s,
                  approx_s);
    }
    tripoll::bench::print_rule(92);
  }
  return 0;
}
