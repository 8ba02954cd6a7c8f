// bench_fig8_fqdn -- reproduces the Sec. 5.8 / Fig. 8 experiment: FQDN
// analysis of triangles in the web graph with string vertex metadata.
//
// Reported, mirroring the paper's numbers for WDC-2012:
//  * runtime of the FQDN 3-tuple survey vs plain counting on the same graph
//    (paper: 1694.6s vs 456.7s, a ~3.7x metadata overhead),
//  * the number of triangles with 3 distinct FQDNs and of unique 3-tuples
//    (paper: 248.7B and 39.2B),
//  * the focus-domain ("amazon.com") pair distribution that Fig. 8 plots,
//    post-processed from the survey output.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
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

int main() {
  const int delta = tripoll::bench::scale_delta_from_env(0);
  const int ranks = std::min(tripoll::bench::max_ranks_from_env(), 16);

  gen::web_params params;
  params.scale = static_cast<std::uint32_t>(std::max(8, 15 + delta));
  // More domains and more cross-domain links than the scaling presets:
  // tuple diversity and distinct-FQDN triangles are what make the metadata
  // survey expensive relative to plain counting (paper Sec. 5.8).
  params.num_domains = std::uint32_t{1} << (params.scale > 3 ? params.scale - 3 : 1);
  params.p_intra_domain = 0.20;
  params.p_hub = 0.30;
  params.p_community = 0.35;

  tripoll::bench::print_header("Fig. 8 / Sec 5.8: FQDN survey on the web graph",
                               "Fig. 8");

  // Pass 1: plain triangle count on the same topology, no vertex metadata.
  // Run twice; the first run warms the allocator and is discarded.
  double plain_seconds = 0.0;
  std::uint64_t plain_triangles = 0;
  for (int pass = 0; pass < 2; ++pass) {
    gen::dataset_spec spec;
    spec.kind = gen::dataset_kind::web;
    spec.web = params;
    comm::runtime::run(ranks, [&](comm::communicator& c) {
      gen::plain_graph g(c);
      gen::build_dataset(c, g, spec);
      auto fz = tripoll::graph::freeze(g);
      cb::count_context ctx;
      const auto r = cb::plan_for(fz, cb::count_callback{}, ctx)
                         .run({tripoll::survey_mode::push_pull})
                         .slice(0);
      const auto total = ctx.global_count(c);
      if (c.rank0()) {
        plain_seconds = r.total.seconds;
        plain_triangles = total;
      }
    });
  }

  // Pass 2: the FQDN 3-tuple survey with string metadata.
  std::map<cb::fqdn_tuple, std::uint64_t> tuples;
  double fqdn_seconds = 0.0;
  std::uint64_t distinct_triangles = 0, unique_tuples = 0;
  comm::runtime::run(ranks, [&](comm::communicator& c) {
    gen::web_graph g(c);
    gen::build_web_graph(c, g, params);
    auto fz = tripoll::graph::freeze(g);
    // Small cache relative to the tuple diversity: at paper scale (39.2B
    // unique tuples) the per-rank cache misses constantly, so nearly every
    // increment becomes an RPC; emulate that regime here.
    comm::counting_set<cb::fqdn_tuple> counters(c, /*cache_capacity=*/64);
    cb::fqdn_tuple_context ctx{&counters};
    const auto r = cb::plan_for(fz, cb::fqdn_tuple_callback{}, ctx)
                       .run({tripoll::survey_mode::push_pull})
                       .slice(0);
    counters.finalize();
    const auto distinct = c.all_reduce_sum(ctx.distinct_fqdn_triangles);
    const auto uniq = counters.global_size();
    auto gathered = counters.gather_all();  // collective: all ranks participate
    if (c.rank0()) {
      fqdn_seconds = r.total.seconds;
      distinct_triangles = distinct;
      unique_tuples = uniq;
      tuples = std::move(gathered);
    }
  });

  std::printf("plain count        : %s triangles in %.3fs\n",
              tripoll::bench::human_count(plain_triangles).c_str(), plain_seconds);
  std::printf("FQDN tuple survey  : %.3fs  (metadata overhead %.2fx; paper: 3.7x)\n",
              fqdn_seconds, plain_seconds > 0 ? fqdn_seconds / plain_seconds : 0.0);
  std::printf("distinct-FQDN triangles: %s   unique FQDN 3-tuples: %s\n\n",
              tripoll::bench::human_count(distinct_triangles).c_str(),
              tripoll::bench::human_count(unique_tuples).c_str());

  // Post-processing around the focus domain (paper: done on one machine).
  const std::string focus = "amazon.com";
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
  for (const auto& [pr, n] : pairs) top.emplace_back(n, pr);
  std::sort(top.rbegin(), top.rend());
  std::printf("top FQDN pairs in triangles with \"%s\" (%zu pairs total):\n",
              focus.c_str(), pairs.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(top.size(), 20); ++i) {
    std::printf("  %10llu  %s + %s\n", (unsigned long long)top[i].first,
                top[i].second.first.c_str(), top[i].second.second.c_str());
  }

  // Per-domain totals with the focus domain (the dense rows of Fig. 8:
  // the amazon family, competitors, and topical communities).
  std::map<std::string, std::uint64_t> row_totals;
  for (const auto& [pr, n] : pairs) {
    row_totals[pr.first] += n;
    row_totals[pr.second] += n;
  }
  std::vector<std::pair<std::uint64_t, std::string>> rows;
  for (const auto& [d, n] : row_totals) rows.emplace_back(n, d);
  std::sort(rows.rbegin(), rows.rend());
  std::printf("\ndomains most co-triangulated with \"%s\":\n", focus.c_str());
  for (std::size_t i = 0; i < std::min<std::size_t>(rows.size(), 12); ++i) {
    std::printf("  %10llu  %s\n", (unsigned long long)rows[i].first,
                rows[i].second.c_str());
  }
  return 0;
}
