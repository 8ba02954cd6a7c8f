// web-fqdn: the paper's metadata survey (Sec. 5.8, Fig. 8).  A hub-heavy
// web graph whose pages carry their FQDN as string vertex metadata; each
// survey builds the histogram of FQDN 3-tuples over triangles with three
// distinct domains in a distributed counting set with a 64-entry cache.  The
// pull phase works hard on the hubs, string metadata dominates the bytes on
// the wire, and non-empty metadata keeps the hub-bitmap kernels out.
#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "baselines/serial_tc.hpp"
#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/intersect.hpp"
#include "gen/distribute.hpp"
#include "gen/web.hpp"
#include "stages.hpp"

namespace tripoll::pipeline {

namespace {

using web_graph = graph::frozen_dodgr<std::string, graph::none>;

constexpr int kSetups = 3;
constexpr std::size_t kMinSurveys = 5;
constexpr std::size_t kCountingSetCache = 64;

/// Fig. 8's generator settings at scale 16: more domains and more
/// cross-domain links than the scaling presets, so tuples are diverse.
gen::web_params fig8_params(std::uint64_t seed) {
  gen::web_params p;
  p.scale = 16;
  p.num_domains = std::uint32_t{1} << (p.scale - 3);
  p.p_intra_domain = 0.20;
  p.p_hub = 0.30;
  p.p_community = 0.35;
  p.seed = derive_seed(seed, 0xF9D7);
  return p;
}

/// Order-free digest of one histogram entry; a histogram's digest is the
/// wrapping sum over its entries, so ranks can sum their local parts.
std::uint64_t tuple_digest(std::string_view a, std::string_view b, std::string_view c,
                           std::uint64_t count) {
  return mix(mix(mix(serial::fnv1a(a), serial::fnv1a(b)), serial::fnv1a(c)), count);
}

/// Serial reference: enumerate every triangle of the deduplicated edge set
/// over a degree-ordered CSR and build the same histogram.  Returns
/// {distinct-FQDN triangles, histogram digest, serial count seconds}.
words reference(const gen::web_generator& gen, const std::vector<graph::edge>& edges) {
  const baselines::ordered_csr csr(edges);
  const auto t0 = clock_type::now();
  const std::uint64_t triangles = baselines::serial_triangle_count(csr);
  const double serial_s = seconds_since(t0);

  // Domains are compared by name: lexrank[d] is d's position in name order,
  // so a sorted lexrank triple is the callback's sorted FQDN tuple.
  const std::uint32_t domains = gen.num_domains();
  std::vector<std::string> names(domains);
  for (std::uint32_t d = 0; d < domains; ++d) names[d] = gen.fqdn_of_domain(d);
  std::vector<std::uint32_t> by_name(domains);
  std::iota(by_name.begin(), by_name.end(), 0u);
  std::sort(by_name.begin(), by_name.end(),
            [&](std::uint32_t x, std::uint32_t y) { return names[x] < names[y]; });
  std::vector<std::uint64_t> lexrank(domains);
  for (std::uint32_t i = 0; i < domains; ++i) lexrank[by_name[i]] = i;

  std::vector<std::uint64_t> rank_of_vertex(csr.num_vertices());
  for (std::uint32_t v = 0; v < csr.num_vertices(); ++v) {
    rank_of_vertex[v] = lexrank[gen.domain_of(csr.original_id(v))];
  }
  std::unordered_map<std::uint64_t, std::uint64_t> hist;
  std::uint64_t distinct = 0, enumerated = 0;
  for (std::uint32_t p = 0; p < csr.num_vertices(); ++p) {
    const auto adj = csr.out(p);
    for (std::size_t i = 0; i + 1 < adj.size(); ++i) {
      const auto q_adj = csr.out(adj[i]);
      core::merge_path_intersect(
          adj.begin() + static_cast<std::ptrdiff_t>(i) + 1, adj.end(), q_adj.begin(),
          q_adj.end(), [](std::uint32_t x) { return x; }, [](std::uint32_t x) { return x; },
          [&](std::uint32_t r, std::uint32_t) {
            ++enumerated;
            std::array<std::uint64_t, 3> t{rank_of_vertex[p], rank_of_vertex[adj[i]],
                                           rank_of_vertex[r]};
            if (t[0] == t[1] || t[1] == t[2] || t[0] == t[2]) return;
            ++distinct;
            std::sort(t.begin(), t.end());
            ++hist[(t[0] << 42) | (t[1] << 21) | t[2]];
          });
    }
  }
  if (enumerated != triangles) throw std::runtime_error("web-fqdn reference: enumeration disagrees");
  std::uint64_t digest = 0;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << 21) - 1;
  for (const auto& [key, n] : hist) {
    digest += tuple_digest(names[by_name[key >> 42]], names[by_name[(key >> 21) & kMask]],
                           names[by_name[key & kMask]], n);
  }
  return {distinct, digest, f64_word(serial_s)};
}

}  // namespace

outcome run_web_fqdn(const options& opt) {
  outcome out;
  const gen::web_generator gen(fig8_params(opt.seed));

  // Inputs, untimed: every edge and every page's FQDN, and the reference
  // histogram from a child process.
  std::vector<graph::edge> edges(gen.num_edges());
  for (std::uint64_t k = 0; k < edges.size(); ++k) {
    const auto e = gen.edge_at(k);
    edges[k] = {e.u, e.v};
  }
  std::vector<std::string> fqdn(gen.num_vertices());
  for (std::uint64_t v = 0; v < fqdn.size(); ++v) fqdn[v] = gen.vertex_meta_at(v);
  const words ref = run_in_child([&] { return reference(gen, edges); });
  const std::uint64_t expected_distinct = ref.at(0);
  const std::uint64_t expected_digest = ref.at(1);
  const double serial_tc_s = word_f64(ref.at(2));

  std::vector<double> setup_s;
  std::vector<build_cost> builds;
  survey_series series;
  std::vector<double> reply_ms;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> results;  // (distinct, digest)
  double window_s = 0.0;
  extras ex;
  comm::runtime::run(kRanks, [&](comm::communicator& c) {
    trace::set_rank(c.rank());
    std::optional<web_graph> g;
    for (int rep = 0; rep < kSetups; ++rep) {
      g.reset();
      c.barrier();
      const auto t0 = clock_type::now();
      trace::span window("window.setup");
      build_cost cost;
      g.emplace(build_and_freeze<std::string, graph::none>(
          c,
          [&](auto& builder) {
            gen::for_rank_slice(c, edges.size(),
                                [&](std::uint64_t k) { builder.add_edge(edges[k].u, edges[k].v); });
            gen::for_rank_slice(c, fqdn.size(),
                                [&](std::uint64_t v) { builder.add_vertex_meta(v, fqdn[v]); });
          },
          cost));
      const double total = seconds_since(t0);
      if (c.rank0()) {
        setup_s.push_back(total);
        builds.push_back(cost);
      }
    }

    // One FQDN survey, reply = traversal + counting-set finalize.  In the
    // measured loop (`window` set) the histogram is then checked, with the
    // window paused.
    const auto fqdn_survey = [&](int threads, run_window* window) {
      comm::counting_set<callbacks::fqdn_tuple> counters(c, kCountingSetCache);
      callbacks::fqdn_tuple_context ctx{&counters};
      c.barrier();
      const auto t0 = clock_type::now();
      survey_result r;
      {
        trace::span s("survey.run");
        r = callbacks::plan_for(*g, callbacks::fqdn_tuple_callback{}, ctx)
                .run(survey_opts(threads))
                .slice(0);
      }
      const double survey_s = seconds_since(t0);
      const auto t1 = clock_type::now();
      {
        trace::span s("comm.finalize");
        counters.finalize();
      }
      const double finalize_s = seconds_since(t1);
      if (window == nullptr) return survey_s;
      window->pause();
      std::uint64_t local = 0;
      counters.for_all_local([&](const callbacks::fqdn_tuple& t, std::uint64_t n) {
        local += tuple_digest(std::get<0>(t), std::get<1>(t), std::get<2>(t), n);
      });
      const std::uint64_t digest = c.all_reduce_sum(local);
      const std::uint64_t distinct = c.all_reduce_sum(ctx.distinct_fqdn_triangles);
      if (c.rank0()) {
        series.add(r, survey_s, finalize_s);
        reply_ms.push_back((survey_s + finalize_s) * 1e3);
        results.emplace_back(distinct, digest);
      }
      window->resume();
      return survey_s;
    };

    c.barrier();
    const auto loop0 = clock_type::now();
    run_window window;
    while (keep_going(c, loop0, opt.seconds, series.seconds.size(), kMinSurveys)) {
      (void)fqdn_survey(kThreads, &window);
    }
    const double w = window.close();
    if (c.rank0()) window_s = w;
    measure_extras(c, *g, [&](int threads) { return fqdn_survey(threads, nullptr); }, ex);
  });

  out.attempted = kSetups + results.size();
  for (const auto& [distinct, digest] : results) {
    out.expect(distinct == expected_distinct && digest == expected_digest,
               "web-fqdn: histogram of " + std::to_string(distinct) +
                   " distinct-FQDN triangles differs from the serial reference (" +
                   std::to_string(expected_distinct) + ")");
  }
  if (!results.empty()) out.digest = mix(results.front().first, results.front().second);

  out.e2e("setup_s", median(setup_s), "s", setup_s.size());
  report_survey_e2e(out, series);
  report_replies(out, reply_ms, window_s);

  report_build(out, builds);
  report_survey_layers(out, series, serial_tc_s);
  report_extras(out, ex);
  return out;
}

}  // namespace tripoll::pipeline
