// analytics.hpp -- triangle-derived graph analytics built on the survey.
//
// The paper motivates local triangle participation counts through their
// applications: truss decomposition [15], clustering coefficients [7],
// community detection [11], role analysis [26].  This module packages the
// two primitives those applications share:
//   * per-vertex participation -> local clustering coefficients and the
//     global transitivity,
//   * per-edge participation ("support") -> the k-truss building block.
//
// Both are ordinary TriPoll survey plans whose callbacks accumulate into
// distributed counting sets.  Neither reads any metadata, so the plans
// project vertex AND edge metadata to graph::none: the traversal ships zero
// metadata bytes regardless of how rich the graph's metadata is.  When both
// primitives are wanted, `clustering_and_support` fuses them into a single
// traversal (one pass over |W+| instead of two).  The partition of
// counting-set keys matches the graph's vertex partition, so the final
// division by degree is rank-local.
//
// Parallel traversal: every entry point forwards `survey_options` (and so
// `threads` / TRIPOLL_THREADS) to the engine.  The callbacks count into
// their slices' counting-set tallies (core/callbacks.hpp), so they fire on
// every worker thread; see docs/THREADING.md.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>

#include "comm/counting_set.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "graph/types.hpp"

namespace tripoll::analytics {

/// Collective result of `clustering_coefficients`.
struct clustering_summary {
  std::uint64_t triangles = 0;        ///< global |T|
  std::uint64_t closed_wedges = 0;    ///< 3 |T|
  std::uint64_t total_wedges = 0;     ///< sum_v C(d(v), 2) (undirected wedges)
  double transitivity = 0.0;          ///< 3|T| / total_wedges
  double average_local_cc = 0.0;      ///< mean over vertices with d >= 2
  std::uint64_t eligible_vertices = 0;  ///< vertices with d >= 2
};

/// Normalized undirected edge key for support counting.
using edge_key = std::pair<graph::vertex_id, graph::vertex_id>;

[[nodiscard]] inline edge_key make_edge_key(graph::vertex_id a,
                                            graph::vertex_id b) noexcept {
  return a < b ? edge_key{a, b} : edge_key{b, a};
}

namespace detail {

using edge_support_context = callbacks::counting_set_context<edge_key>;

/// Metadata-free callback crediting all three edges.
struct edge_support_cb {
  template <typename View>
  void operator()(const View& view, edge_support_context& ctx) const {
    ctx.tally.increment(make_edge_key(view.p, view.q));
    ctx.tally.increment(make_edge_key(view.p, view.r));
    ctx.tally.increment(make_edge_key(view.q, view.r));
  }
};

/// Reduce a finalized per-vertex participation set to the standard
/// clustering statistics (collective).
template <typename Graph>
[[nodiscard]] clustering_summary summarize_clustering(
    Graph& g, comm::counting_set<graph::vertex_id>& per_vertex,
    std::uint64_t triangles) {
  auto& c = g.comm();
  // Counting-set keys and graph vertices share the hash partition, so each
  // rank holds both T(v) and d(v) for its vertices; the division is local.
  std::uint64_t local_wedges = 0;
  std::uint64_t local_eligible = 0;
  double local_cc_sum = 0.0;
  {
    std::unordered_map<graph::vertex_id, std::uint64_t> counts;
    per_vertex.for_all_local(
        [&](const graph::vertex_id& v, std::uint64_t n) { counts[v] = n; });
    g.for_all_local([&](const graph::vertex_id& v, const auto& rec) {
      const std::uint64_t d = rec.degree;
      if (d < 2) return;
      const std::uint64_t wedges = d * (d - 1) / 2;
      local_wedges += wedges;
      ++local_eligible;
      const auto it = counts.find(v);
      const std::uint64_t tv = it == counts.end() ? 0 : it->second;
      local_cc_sum += static_cast<double>(tv) / static_cast<double>(wedges);
    });
  }

  clustering_summary s;
  s.triangles = triangles;
  s.closed_wedges = 3 * s.triangles;
  s.total_wedges = c.all_reduce_sum(local_wedges);
  s.eligible_vertices = c.all_reduce_sum(local_eligible);
  const double cc_sum = c.all_reduce_sum(local_cc_sum);
  s.transitivity = s.total_wedges > 0
                       ? static_cast<double>(s.closed_wedges) /
                             static_cast<double>(s.total_wedges)
                       : 0.0;
  s.average_local_cc =
      s.eligible_vertices > 0 ? cc_sum / static_cast<double>(s.eligible_vertices) : 0.0;
  return s;
}

}  // namespace detail

/// Collective: run a per-vertex participation survey and reduce it to the
/// standard clustering statistics.
template <typename Graph>
[[nodiscard]] clustering_summary clustering_coefficients(Graph& g,
                                                         survey_options opts = {}) {
  auto& c = g.comm();
  comm::counting_set<graph::vertex_id> per_vertex(c);
  callbacks::local_count_context vertex_ctx{&per_vertex};
  const auto result = survey(g)
                          .project_vertex(drop_projection{})
                          .project_edge(drop_projection{})
                          .add(callbacks::local_count_callback{}, vertex_ctx)
                          .run(opts);
  per_vertex.finalize();
  return detail::summarize_clustering(g, per_vertex, result.total.triangles_found);
}

template <typename Graph>
[[nodiscard]] clustering_summary clustering_coefficients(Graph& g, survey_mode mode) {
  return clustering_coefficients(g, survey_options{mode});
}

/// Collective: count, for every edge, the number of triangles containing it
/// (the k-truss "support").  Results land in `support` (finalized).
template <typename Graph>
survey_result edge_support(Graph& g, comm::counting_set<edge_key>& support,
                           survey_options opts = {}) {
  detail::edge_support_context support_ctx{&support};
  const auto result = survey(g)
                          .project_vertex(drop_projection{})
                          .project_edge(drop_projection{})
                          .add(detail::edge_support_cb{}, support_ctx)
                          .run(opts);
  support.finalize();
  return result.slice(0);
}

template <typename Graph>
survey_result edge_support(Graph& g, comm::counting_set<edge_key>& support,
                           survey_mode mode) {
  return edge_support(g, support, survey_options{mode});
}

/// Collective: BOTH primitives from one fused traversal -- per-vertex
/// participation reduced to clustering statistics, per-edge support left in
/// `support` (finalized).  Halves the wedge traffic versus running
/// clustering_coefficients and edge_support back to back.
template <typename Graph>
[[nodiscard]] clustering_summary clustering_and_support(
    Graph& g, comm::counting_set<edge_key>& support, survey_options opts = {}) {
  auto& c = g.comm();
  comm::counting_set<graph::vertex_id> per_vertex(c);
  callbacks::local_count_context vertex_ctx{&per_vertex};
  detail::edge_support_context support_ctx{&support};
  const auto result = survey(g)
                          .project_vertex(drop_projection{})
                          .project_edge(drop_projection{})
                          .add(callbacks::local_count_callback{}, vertex_ctx)
                          .add(detail::edge_support_cb{}, support_ctx)
                          .run(opts);
  per_vertex.finalize();
  support.finalize();
  return detail::summarize_clustering(g, per_vertex, result.total.triangles_found);
}

template <typename Graph>
[[nodiscard]] clustering_summary clustering_and_support(
    Graph& g, comm::counting_set<edge_key>& support, survey_mode mode) {
  return clustering_and_support(g, support, survey_options{mode});
}

}  // namespace tripoll::analytics
