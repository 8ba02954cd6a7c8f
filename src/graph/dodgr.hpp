// dodgr.hpp -- the order-directed graph with metadata (Sec. 4.2).
//
// Storage follows the paper exactly: a distributed map keyed by vertex id
// whose value holds the vertex's metadata and its metadata-augmented
// out-adjacency
//
//   Adjm+(u) = { (v, meta(u,v), meta(v)) : v in Adj+(u) },
//
// ordered by the `<+` vertex order chosen at build time (degree or
// degeneracy; see graph/ordering.hpp).  Storing the *target's* metadata
// along each out-edge moves vertex-metadata storage from O(|V|) to O(|E|)
// but lets a triangle callback run with all six pieces of metadata already
// local.
//
// This map form is a build step only: the graph builder shuffles, peels and
// writes records into it, and graph::freeze() (graph/frozen.hpp) turns it
// into the slot-addressed CSR that the survey engine walks.  It has no
// survey read API -- surveying it directly fails to compile.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/distributed_map.hpp"
#include "graph/ordering.hpp"
#include "graph/types.hpp"

namespace tripoll::graph {

/// One entry of Adjm+(u).
template <typename VertexMeta, typename EdgeMeta>
struct adj_entry {
  vertex_id target = 0;
  std::uint64_t target_rank = 0;        ///< target's <+ comparison rank
  std::uint64_t target_out_degree = 0;  ///< d+(target): drives pull decisions
  EdgeMeta edge_meta{};
  VertexMeta target_meta{};

  [[nodiscard]] order_key key() const noexcept {
    return make_order_key(target, target_rank);
  }

  template <typename Archive>
  void serialize(Archive& ar) {
    ar(target, target_rank, target_out_degree, edge_meta, target_meta);
  }
};

/// Per-vertex record: meta(u) plus Adjm+(u).
template <typename VertexMeta, typename EdgeMeta>
struct vertex_record {
  std::uint64_t degree = 0;      ///< d(u) in the undirected graph G
  std::uint64_t order_rank = 0;  ///< u's own <+ comparison rank
  VertexMeta meta{};
  std::vector<adj_entry<VertexMeta, EdgeMeta>> adj;  ///< sorted by <+ of target

  [[nodiscard]] std::uint64_t out_degree() const noexcept { return adj.size(); }
};

/// Collective census of a built graph (the Table 1 columns).
struct graph_census {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_directed_edges = 0;  ///< 2x undirected count (paper convention)
  std::uint64_t max_degree = 0;          ///< d_max
  std::uint64_t max_out_degree = 0;      ///< d_max^+
  std::uint64_t wedge_checks = 0;        ///< |W+| = sum_v C(d+(v), 2)
};

template <typename VertexMeta, typename EdgeMeta>
class dodgr {
 public:
  using vertex_meta_type = VertexMeta;
  using edge_meta_type = EdgeMeta;
  using entry_type = adj_entry<VertexMeta, EdgeMeta>;
  using record_type = vertex_record<VertexMeta, EdgeMeta>;
  using map_type = comm::distributed_map<vertex_id, record_type>;
  using self = dodgr<VertexMeta, EdgeMeta>;

  explicit dodgr(comm::communicator& c)
      : comm_(&c), map_(c), handle_(c.register_object(*this)) {}

  ~dodgr() { comm_->deregister_object(handle_); }

  dodgr(const dodgr&) = delete;
  dodgr& operator=(const dodgr&) = delete;

  [[nodiscard]] comm::communicator& comm() noexcept { return *comm_; }
  [[nodiscard]] map_type& storage() noexcept { return map_; }
  [[nodiscard]] const map_type& storage() const noexcept { return map_; }
  [[nodiscard]] comm::dist_handle<self> handle() const noexcept { return handle_; }

  [[nodiscard]] int owner(vertex_id v) const noexcept { return map_.owner(v); }

  /// Apply `fn(vertex_id, record&)` to every locally stored vertex.
  template <typename Fn>
  void for_all_local(Fn&& fn) {
    map_.for_all_local(std::forward<Fn>(fn));
  }

  template <typename Fn>
  void for_all_local(Fn&& fn) const {
    map_.for_all_local(std::forward<Fn>(fn));
  }

  /// The paper's DODGr.visit(v, func, args...): run `Visitor{}` on the rank
  /// that owns `v`, with access to v's record.  No-op when `v` is unknown.
  template <typename Visitor, typename... Args>
  void async_visit(vertex_id v, Visitor visitor, const Args&... args) {
    map_.async_visit_if_exists(v, visitor, args...);
  }

  [[nodiscard]] record_type* local_find(vertex_id v) { return map_.local_find(v); }
  [[nodiscard]] const record_type* local_find(vertex_id v) const {
    return map_.local_find(v);
  }

  [[nodiscard]] std::size_t local_num_vertices() const noexcept {
    return map_.local_size();
  }

  /// Collective: Table 1 columns for this graph.  Cached after first call.
  [[nodiscard]] graph_census census() {
    if (census_valid_) return census_;
    std::uint64_t verts = 0, dir_edges = 0, dmax = 0, dmax_plus = 0, wedges = 0;
    map_.for_all_local([&](const vertex_id&, const record_type& rec) {
      ++verts;
      dir_edges += rec.degree;
      dmax = std::max(dmax, rec.degree);
      dmax_plus = std::max(dmax_plus, rec.out_degree());
      const std::uint64_t dp = rec.out_degree();
      wedges += dp * (dp - 1) / 2;
    });
    census_.num_vertices = comm_->all_reduce_sum(verts);
    census_.num_directed_edges = comm_->all_reduce_sum(dir_edges);
    census_.max_degree = comm_->all_reduce_max(dmax);
    census_.max_out_degree = comm_->all_reduce_max(dmax_plus);
    census_.wedge_checks = comm_->all_reduce_sum(wedges);
    census_valid_ = true;
    return census_;
  }

  void invalidate_census() noexcept { census_valid_ = false; }

  /// Which ordering policy built this graph (set by the builder; the census
  /// `wedge_checks`/`max_out_degree` columns compare orderings directly).
  [[nodiscard]] ordering_policy ordering() const noexcept { return ordering_; }
  void set_ordering(ordering_policy p) noexcept { ordering_ = p; }

 private:
  comm::communicator* comm_;
  map_type map_;
  comm::dist_handle<self> handle_;
  graph_census census_{};
  bool census_valid_ = false;
  ordering_policy ordering_ = ordering_policy::degree;
};

}  // namespace tripoll::graph
