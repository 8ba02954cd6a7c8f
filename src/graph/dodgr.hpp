// dodgr.hpp -- the order-directed graph with metadata (Sec. 4.2), as built.
//
// The paper defines the DODGr by its content: each vertex's metadata and
// its metadata-augmented out-adjacency
//
//   Adjm+(u) = { (v, meta(u,v), meta(v)) : v in Adj+(u) },
//
// ordered by the `<+` vertex order chosen at build time (degree or
// degeneracy; see graph/ordering.hpp).  Storing the *target's* metadata
// along each out-edge moves vertex-metadata storage from O(|V|) to O(|E|)
// but lets a triangle callback run with all six pieces of metadata already
// local.
//
// `dodgr` is what graph_builder::build_into fills: each rank's vertices in
// <+ order as CSR columns (graph/frozen.hpp's frozen_arenas) holding the
// build-time metadata.  It offers the record views frozen_dodgr has
// (for_all_local / local_find / census) but no slot-addressed API, so
// surveying it directly fails to compile: graph::freeze() projects the
// columns and returns the frozen_dodgr the survey engine walks.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/parallel.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"
#include "graph/types.hpp"

namespace tripoll::graph {

template <typename VertexMeta, typename EdgeMeta, typename MergePolicy>
class graph_builder;

template <typename VertexMeta, typename EdgeMeta>
class dodgr {
 public:
  using vertex_meta_type = VertexMeta;
  using edge_meta_type = EdgeMeta;
  using columns_type = frozen_dodgr<VertexMeta, EdgeMeta>;
  using record_type = typename columns_type::record_view;
  using entry_type = typename columns_type::entry_view;

  /// An empty graph; graph_builder::build_into fills it.
  explicit dodgr(comm::communicator& c)
      : cols_(std::make_shared<columns_type>(c, empty_arenas(), ordering_policy::degree)) {}

  dodgr(const dodgr&) = delete;
  dodgr& operator=(const dodgr&) = delete;

  [[nodiscard]] comm::communicator& comm() const noexcept { return cols_->comm(); }
  [[nodiscard]] int owner(vertex_id v) const noexcept { return cols_->owner(v); }

  /// Apply `fn(vertex_id, const record_type&)` to every local vertex, in
  /// ascending <+ order.
  template <typename Fn>
  void for_all_local(Fn&& fn) const {
    cols_->for_all_local(std::forward<Fn>(fn));
  }

  [[nodiscard]] std::optional<record_type> local_find(vertex_id v) const {
    return cols_->local_find(v);
  }

  [[nodiscard]] std::size_t local_num_vertices() const noexcept {
    return cols_->local_num_vertices();
  }

  /// Collective: Table 1 columns for this graph.  Cached after first call.
  [[nodiscard]] graph_census census() { return cols_->census(); }

  /// Which ordering policy built this graph (the census `wedge_checks` /
  /// `max_out_degree` columns compare orderings directly).
  [[nodiscard]] ordering_policy ordering() const noexcept { return cols_->ordering(); }

  /// The built columns.  freeze() shares them with the frozen graph it
  /// returns instead of copying them.
  [[nodiscard]] std::shared_ptr<const columns_type> columns() const noexcept {
    return cols_;
  }

 private:
  template <typename, typename, typename>
  friend class graph_builder;

  [[nodiscard]] static frozen_arenas<VertexMeta, EdgeMeta> empty_arenas() {
    frozen_arenas<VertexMeta, EdgeMeta> ar;
    ar.offset = arena<std::uint64_t>(std::vector<std::uint64_t>{0});
    return ar;
  }

  void assign(frozen_arenas<VertexMeta, EdgeMeta>&& ar, ordering_policy ordering) {
    cols_ = std::make_shared<columns_type>(cols_->comm(), std::move(ar), ordering);
  }

  std::shared_ptr<columns_type> cols_;
};

namespace detail {

/// A frozen metadata column from a built one: nothing for an empty type,
/// the built column itself under the identity projection, otherwise the
/// projection applied once per cell over `threads` workers.
template <typename P, typename T, typename Proj>
[[nodiscard]] meta_column<P> project_column(const meta_column<T>& in, const Proj& proj,
                                            int threads,
                                            const std::shared_ptr<const void>& keepalive) {
  const std::size_t n = in.size();
  if constexpr (std::is_empty_v<P>) {
    return meta_column<P>(n);
  } else if constexpr (std::is_same_v<Proj, copy_meta> && std::is_same_v<P, T>) {
    return meta_column<P>(in.data(), n, keepalive);
  } else {
    std::vector<P> out(n);
    core::chunk_queue chunks(n, core::chunk_size_for(n, threads));
    core::fork_join(threads, [&](int) {
      std::size_t first = 0, last = 0;
      while (chunks.next(first, last)) {
        for (std::size_t i = first; i < last; ++i) out[i] = proj(in[i]);
      }
    });
    return meta_column<P>(std::move(out));
  }
}

template <typename T>
[[nodiscard]] arena<T> share_arena(const arena<T>& in,
                                   const std::shared_ptr<const void>& keepalive) {
  return arena<T>(in.data(), in.size(), keepalive);
}

}  // namespace detail

/// Freeze a built DODGr with the metadata projections applied ONCE, storing
/// only the projected columns (projection push-down: surveys over the
/// frozen graph run with identity projections and read pre-projected
/// arenas).  The id, degree, rank, offset and target columns -- and metadata
/// columns the projection leaves unchanged -- are shared with `g`, not
/// copied; `g` may be discarded afterwards.
template <typename VMeta, typename EMeta, typename VProj, typename EProj>
[[nodiscard]] auto freeze(const dodgr<VMeta, EMeta>& g, VProj vproj, EProj eproj,
                          const freeze_options& opts = {}) {
  using PV = std::remove_cvref_t<std::invoke_result_t<const VProj&, const VMeta&>>;
  using PE = std::remove_cvref_t<std::invoke_result_t<const EProj&, const EMeta&>>;
  const std::shared_ptr<const void> keep = g.columns();
  const auto& in = g.columns()->arenas();
  const int threads = core::resolve_threads(opts.threads);

  frozen_arenas<PV, PE> ar;
  ar.vid = detail::share_arena(in.vid, keep);
  ar.degree = detail::share_arena(in.degree, keep);
  ar.order_rank = detail::share_arena(in.order_rank, keep);
  ar.offset = detail::share_arena(in.offset, keep);
  ar.vmeta = detail::project_column<PV>(in.vmeta, vproj, threads, keep);
  ar.target = detail::share_arena(in.target, keep);
  ar.target_rank = detail::share_arena(in.target_rank, keep);
  ar.target_out_degree = detail::share_arena(in.target_out_degree, keep);
  ar.emeta = detail::project_column<PE>(in.emeta, eproj, threads, keep);
  ar.target_vmeta = detail::project_column<PV>(in.target_vmeta, vproj, threads, keep);
  return frozen_dodgr<PV, PE>(g.comm(), std::move(ar), g.ordering());
}

/// Freeze with the metadata stored unchanged (identity projections).
template <typename VMeta, typename EMeta>
[[nodiscard]] frozen_dodgr<VMeta, EMeta> freeze(const dodgr<VMeta, EMeta>& g,
                                                const freeze_options& opts = {}) {
  return freeze(g, detail::copy_meta{}, detail::copy_meta{}, opts);
}

/// Freeze through a survey plan's declared projections: the frozen graph
/// stores exactly what that plan (and every plan sharing its projections)
/// ships -- run the plan over the frozen graph WITHOUT re-declaring the
/// projections, they are baked into the arenas.
template <typename Plan>
  requires requires(const Plan& p) {
    p.graph();
    p.vertex_proj();
    p.edge_proj();
  }
[[nodiscard]] auto freeze(const Plan& plan, const freeze_options& opts = {}) {
  return freeze(plan.graph(), plan.vertex_proj(), plan.edge_proj(), opts);
}

}  // namespace tripoll::graph
