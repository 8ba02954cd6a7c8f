// builder.hpp -- distributed construction of the DODGr from raw edges.
//
// Every rank contributes undirected edges (optional metadata) and vertex
// metadata; the input never lands on one rank.  Construction is a bulk
// pipeline over rank-local arrays whose exchanges all go through
// comm::column_exchange (one RPC per ~buffer_capacity bytes of entries):
//
//   feed         : add_edge(u, v) stages the half-edges u->v for Rank(u) and
//                  v->u for Rank(v) (self-loops are dropped);
//                  add_vertex_meta(v) stages (v, meta) for Rank(v).
//   P1  dedup    : one hash pass (core::dense_index) gives every source and
//                  metadata id a dense row (only the distinct ids are
//                  sorted), a stable counting scatter files the half-edges
//                  into their rows, and each row is sorted by (target,
//                  arrival) and its duplicates merged under a policy (e.g.
//                  keep the chronologically first timestamp, the paper's
//                  Reddit rule).  Vertex metadata keeps the last arrival.
//   P2  CSR      : the merged half-edges are the undirected adjacency, rows
//                  ascending by id; a metadata-only vertex is a degree-0 row.
//   P3  ordering : each vertex's <+ rank -- its degree, or its peel wave
//                  from degeneracy_peel over the CSR (graph/ordering.hpp).
//   P4  exchange : the same dense index numbers this rank's distinct
//                  neighbors; each vertex sends (v, rank(v), meta(v)) once to
//                  every rank holding one of its neighbors.
//   P5  assemble : orient edges by <+, sort each Adjm+(v) and the vertices by
//                  <+, and write the CSR columns of the frozen_dodgr.
//   P6  d+ flow  : each vertex sends d+(v) once to every rank holding a DODGr
//                  in-neighbor, which fills target_out_degree for Push-Pull.
//
// Adjm+ stores each undirected edge once, at its <+-lower endpoint, with the
// metadata merged there; keep_least/keep_greatest (any order-independent
// policy) give the same value at either endpoint.
//
// The built graph is surveyable as it stands; graph::freeze() only projects
// its metadata (graph/frozen.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/column_exchange.hpp"
#include "comm/communicator.hpp"
#include "comm/key_hash.hpp"
#include "core/dense_index.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"
#include "graph/types.hpp"

namespace tripoll::graph {

/// Merge policies for duplicate undirected edges (multigraph reduction).
namespace merge {

/// First writer wins (arrival order at the owner; nondeterministic under
/// races across ranks, acceptable for metadata-free counting).
struct keep_existing {
  template <typename EM>
  void operator()(EM& /*existing*/, const EM& /*incoming*/) const noexcept {}
};

/// Keep the smallest metadata value (deterministic; with timestamp metadata
/// this is the paper's "chronologically-first comment" rule).
struct keep_least {
  template <typename EM>
  void operator()(EM& existing, const EM& incoming) const {
    if (incoming < existing) existing = incoming;
  }
};

/// Keep the largest metadata value.
struct keep_greatest {
  template <typename EM>
  void operator()(EM& existing, const EM& incoming) const {
    if (existing < incoming) existing = incoming;
  }
};

}  // namespace merge

template <typename VertexMeta, typename EdgeMeta, typename MergePolicy = merge::keep_existing>
class graph_builder {
 public:
  using graph_type = frozen_dodgr<VertexMeta, EdgeMeta>;

  explicit graph_builder(comm::communicator& c,
                         ordering_policy ordering = ordering_policy::degree)
      : comm_(&c), half_edges_(c), vertex_meta_(c), ordering_(ordering) {}

  graph_builder(const graph_builder&) = delete;
  graph_builder& operator=(const graph_builder&) = delete;

  [[nodiscard]] ordering_policy ordering() const noexcept { return ordering_; }

  /// Contribute one undirected edge.  Self-loops are dropped (triangles
  /// never use them); duplicates merge under MergePolicy at build time.
  void add_edge(vertex_id u, vertex_id v, const EdgeMeta& meta = EdgeMeta{}) {
    require_unbuilt("add_edge");
    if (u == v) {
      ++dropped_self_loops_;
      return;
    }
    half_edges_.push(owner(u), u, v, meta);
    half_edges_.push(owner(v), v, u, meta);
  }

  /// Contribute metadata for a vertex (may arrive from any rank; the last
  /// arrival at the vertex's owner wins).  The vertex exists even if no
  /// edge names it.
  void add_vertex_meta(vertex_id v, const VertexMeta& meta) {
    require_unbuilt("add_vertex_meta");
    vertex_meta_.push(owner(v), v, meta);
  }

  [[nodiscard]] std::uint64_t local_dropped_self_loops() const noexcept {
    return dropped_self_loops_;
  }

  /// Peeling summary of the last build (meaningful after build_into with
  /// ordering_policy::degeneracy; zero-initialized otherwise).
  [[nodiscard]] const degeneracy_stats& peel_stats() const noexcept {
    return peel_stats_;
  }

  /// Collective: run the construction pipeline, filling `g`.  A builder
  /// builds once: a second build_into, or an add_edge/add_vertex_meta after
  /// it, throws std::logic_error.
  void build_into(graph_type& g) {
    require_unbuilt("build_into");
    built_ = true;
    auto& c = *comm_;
    half_edges_.flush();
    vertex_meta_.flush();
    c.barrier();  // every half-edge and metadata entry is on its owner

    const undirected und = dedup_to_csr();  // P1 + P2
    std::vector<std::uint64_t> rank;        // P3
    if (ordering_ == ordering_policy::degeneracy) {
      peel_stats_ = degeneracy_peel(c, und.adjacency(), rank);
    } else {
      rank.resize(und.size());
      for (std::size_t i = 0; i < und.size(); ++i) rank[i] = und.degree(i);
    }
    const neighbor_table nt = exchange_neighbors(und, rank);  // P4
    g = graph_type(g.comm(), assemble(und, rank, nt), ordering_);  // P5 + P6
  }

 private:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// One rank's deduplicated undirected adjacency (P2).
  struct undirected {
    std::vector<vertex_id> vid;         ///< ascending
    std::vector<VertexMeta> vmeta;      ///< parallel to vid
    std::vector<std::uint64_t> offset;  ///< CSR row starts, size()+1 entries
    std::vector<vertex_id> nbr;         ///< ascending within each row
    std::vector<EdgeMeta> emeta;        ///< merged, parallel to nbr

    [[nodiscard]] std::size_t size() const noexcept { return vid.size(); }
    [[nodiscard]] std::uint64_t degree(std::size_t i) const noexcept {
      return offset[i + 1] - offset[i];
    }
    [[nodiscard]] local_adjacency adjacency() const noexcept { return {vid, offset, nbr}; }
  };

  /// The distinct neighbors of this rank's vertices, with their P4 reports.
  struct neighbor_table {
    std::vector<vertex_id> id;          ///< ascending
    std::vector<int> owner;
    std::vector<order_key> key;         ///< <+ key, from the reported rank
    std::vector<VertexMeta> meta;
    std::vector<std::uint32_t> of_nbr;  ///< table index of every undirected nbr[e]

    [[nodiscard]] std::size_t size() const noexcept { return id.size(); }
    [[nodiscard]] std::size_t find(vertex_id v) const noexcept {
      const auto it = std::lower_bound(id.begin(), id.end(), v);
      return it != id.end() && *it == v ? static_cast<std::size_t>(it - id.begin()) : npos;
    }
  };

  [[nodiscard]] int owner(vertex_id v) const noexcept {
    return comm_->owner(comm::key_hash<vertex_id>{}(v));
  }

  void require_unbuilt(const char* call) const {
    if (built_) {
      throw std::logic_error(std::string("tripoll: graph_builder::") + call +
                             " after build_into; a builder builds one graph");
    }
  }

  /// P1 + P2: file the received half-edges into one row per local vertex
  /// (metadata-only ones too), merge each row's duplicates, and lay the
  /// result out as a CSR.
  [[nodiscard]] undirected dedup_to_csr() {
    auto& [src, dst, meta] = half_edges_.inbox();
    auto& [meta_id, meta_value] = vertex_meta_.inbox();
    core::dense_index rows;
    std::vector<std::uint32_t> row_of(src.size()), meta_row_of(meta_id.size());
    for (std::size_t i = 0; i < src.size(); ++i) row_of[i] = rows.add(src[i]);
    src = {};
    for (std::size_t j = 0; j < meta_id.size(); ++j) meta_row_of[j] = rows.add(meta_id[j]);
    const std::vector<std::uint32_t> sorted_row = rows.sort();

    undirected out;
    out.vid = std::move(rows.ids);
    const std::size_t n = out.vid.size();
    out.vmeta.resize(n);
    for (std::size_t j = 0; j < meta_id.size(); ++j) {  // ascending arrival: the last wins
      out.vmeta[sorted_row[meta_row_of[j]]] = std::move(meta_value[j]);
    }

    // Stable counting scatter: row r's half-edges, in arrival order, fill
    // halves[first[r], first[r + 1]).
    struct half {
      vertex_id dst;
      std::size_t arrival;
    };
    std::vector<std::size_t> first(n + 1, 0);
    for (std::uint32_t& r : row_of) {
      r = sorted_row[r];
      ++first[r + 1];
    }
    for (std::size_t r = 0; r < n; ++r) first[r + 1] += first[r];
    std::vector<half> halves(row_of.size());
    {
      std::vector<std::size_t> next(first.begin(), first.end() - 1);
      for (std::size_t i = 0; i < row_of.size(); ++i) halves[next[row_of[i]]++] = {dst[i], i};
    }
    row_of = {};
    dst = {};

    out.nbr.reserve(halves.size());
    out.emeta.reserve(halves.size());
    out.offset.push_back(0);
    for (std::size_t r = 0; r < n; ++r) {
      const auto row = halves.begin() + static_cast<std::ptrdiff_t>(first[r]);
      const auto row_end = halves.begin() + static_cast<std::ptrdiff_t>(first[r + 1]);
      std::sort(row, row_end, [](const half& a, const half& b) {
        return std::tie(a.dst, a.arrival) < std::tie(b.dst, b.arrival);
      });
      for (auto h = row; h != row_end;) {
        const vertex_id u = h->dst;
        EdgeMeta merged = meta[h->arrival];
        for (++h; h != row_end && h->dst == u; ++h) MergePolicy{}(merged, meta[h->arrival]);
        out.nbr.push_back(u);
        out.emeta.push_back(std::move(merged));
      }
      out.offset.push_back(out.nbr.size());
    }
    half_edges_.release_inbox();
    vertex_meta_.release_inbox();
    return out;
  }

  /// P4: each vertex reports (id, rank, meta) once per rank holding a
  /// neighbor; the reports fill the table of this rank's neighbors.
  [[nodiscard]] neighbor_table exchange_neighbors(const undirected& und,
                                                  const std::vector<std::uint64_t>& rank) {
    auto& c = *comm_;
    neighbor_table nt;
    {
      core::dense_index nbrs;
      nt.of_nbr.resize(und.nbr.size());
      for (std::size_t e = 0; e < und.nbr.size(); ++e) nt.of_nbr[e] = nbrs.add(und.nbr[e]);
      const std::vector<std::uint32_t> sorted_pos = nbrs.sort();
      for (std::uint32_t& k : nt.of_nbr) k = sorted_pos[k];
      nt.id = std::move(nbrs.ids);
    }
    nt.owner.resize(nt.size());
    for (std::size_t k = 0; k < nt.size(); ++k) nt.owner[k] = owner(nt.id[k]);

    comm::column_exchange<vertex_id, std::uint64_t, VertexMeta> reports(c);
    std::vector<std::size_t> last(static_cast<std::size_t>(c.size()), npos);
    for (std::size_t i = 0; i < und.size(); ++i) {
      for (std::uint64_t e = und.offset[i]; e < und.offset[i + 1]; ++e) {
        const auto dest = static_cast<std::size_t>(nt.owner[nt.of_nbr[e]]);
        if (last[dest] == i) continue;
        last[dest] = i;
        reports.push(static_cast<int>(dest), und.vid[i], rank[i], und.vmeta[i]);
      }
    }
    reports.flush();
    c.barrier();

    nt.key.resize(nt.size());
    nt.meta.resize(nt.size());
    std::vector<std::uint8_t> seen(nt.size(), 0);
    auto& [id, reported_rank, reported_meta] = reports.inbox();
    for (std::size_t j = 0; j < id.size(); ++j) {
      const std::size_t k = nt.find(id[j]);
      if (k == npos) continue;
      nt.key[k] = make_order_key(id[j], reported_rank[j]);
      nt.meta[k] = std::move(reported_meta[j]);
      seen[k] = 1;
    }
    // Every neighbor must have reported itself; a miss means a lost or
    // mis-routed P4 message and is a construction-breaking bug.
    for (std::size_t k = 0; k < nt.size(); ++k) {
      if (seen[k] == 0) {
        throw std::runtime_error("tripoll: graph_builder P4: neighbor " +
                                 std::to_string(nt.id[k]) +
                                 " never arrived in the P4 exchange");
      }
    }
    return nt;
  }

  /// P5 + P6: orient, sort and write the columns, then fill
  /// target_out_degree from the d+ reports.
  [[nodiscard]] frozen_arenas<VertexMeta, EdgeMeta> assemble(
      const undirected& und, const std::vector<std::uint64_t>& rank,
      const neighbor_table& nt) {
    auto& c = *comm_;
    const std::size_t n = und.size();

    // Orient: Adjm+(v) holds the neighbors above v in <+, sorted by <+.
    struct out_edge {
      order_key key;
      std::uint64_t e;  ///< index into the undirected nbr/emeta columns
    };
    std::vector<order_key> own(n);
    std::vector<std::uint64_t> out_first(n + 1, 0);
    std::vector<out_edge> oriented;
    oriented.reserve(und.nbr.size() / 2);
    for (std::size_t i = 0; i < n; ++i) {
      own[i] = make_order_key(und.vid[i], rank[i]);
      out_first[i] = oriented.size();
      for (std::uint64_t e = und.offset[i]; e < und.offset[i + 1]; ++e) {
        const order_key& k = nt.key[nt.of_nbr[e]];
        if (own[i] < k) oriented.push_back({k, e});
      }
      std::sort(oriented.begin() + static_cast<std::ptrdiff_t>(out_first[i]), oriented.end(),
                [](const out_edge& a, const out_edge& b) { return a.key < b.key; });
    }
    out_first[n] = oriented.size();

    std::vector<std::size_t> by_key(n);
    for (std::size_t i = 0; i < n; ++i) by_key[i] = i;
    std::sort(by_key.begin(), by_key.end(),
              [&](std::size_t a, std::size_t b) { return own[a] < own[b]; });

    // Columns, vertices in <+ order.
    const std::size_t m = oriented.size();
    std::vector<vertex_id> vid(n), target(m);
    std::vector<std::uint64_t> degree(n), order_rank(n), offset(n + 1), target_rank(m);
    std::vector<std::size_t> target_slot(m);  ///< neighbor-table index, for P6
    std::vector<VertexMeta> vmeta, tvmeta;
    std::vector<EdgeMeta> emeta;
    if constexpr (!std::is_empty_v<VertexMeta>) {
      vmeta.resize(n);
      tvmeta.resize(m);
    }
    if constexpr (!std::is_empty_v<EdgeMeta>) emeta.resize(m);
    std::size_t pos = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t i = by_key[j];
      vid[j] = und.vid[i];
      degree[j] = und.degree(i);
      order_rank[j] = rank[i];
      if constexpr (!std::is_empty_v<VertexMeta>) vmeta[j] = und.vmeta[i];
      for (std::uint64_t x = out_first[i]; x < out_first[i + 1]; ++x, ++pos) {
        const out_edge& oe = oriented[x];
        target[pos] = oe.key.id;
        target_rank[pos] = oe.key.rank;
        target_slot[pos] = nt.of_nbr[oe.e];
        if constexpr (!std::is_empty_v<EdgeMeta>) emeta[pos] = und.emeta[oe.e];
        if constexpr (!std::is_empty_v<VertexMeta>) tvmeta[pos] = nt.meta[target_slot[pos]];
      }
      offset[j + 1] = pos;
    }

    // P6: d+(v) to every rank holding a DODGr in-neighbor u (u <+ v).
    comm::column_exchange<vertex_id, std::uint64_t> reports(c);
    std::vector<std::size_t> last(static_cast<std::size_t>(c.size()), npos);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t dplus = out_first[i + 1] - out_first[i];
      for (std::uint64_t e = und.offset[i]; e < und.offset[i + 1]; ++e) {
        const std::size_t k = nt.of_nbr[e];
        const auto dest = static_cast<std::size_t>(nt.owner[k]);
        if (!(nt.key[k] < own[i]) || last[dest] == i) continue;
        last[dest] = i;
        reports.push(static_cast<int>(dest), und.vid[i], dplus);
      }
    }
    reports.flush();
    c.barrier();
    std::vector<std::uint64_t> dplus_of(nt.size(), 0);
    auto& [id, dplus] = reports.inbox();
    for (std::size_t j = 0; j < id.size(); ++j) {
      const std::size_t k = nt.find(id[j]);
      if (k != npos) dplus_of[k] = dplus[j];
    }
    std::vector<std::uint64_t> target_outdeg(m);
    for (std::size_t x = 0; x < m; ++x) target_outdeg[x] = dplus_of[target_slot[x]];

    frozen_arenas<VertexMeta, EdgeMeta> ar;
    ar.vid = arena<vertex_id>(std::move(vid));
    ar.degree = arena<std::uint64_t>(std::move(degree));
    ar.order_rank = arena<std::uint64_t>(std::move(order_rank));
    ar.offset = arena<std::uint64_t>(std::move(offset));
    ar.vmeta = detail::make_meta_column<meta_column<VertexMeta>>(std::move(vmeta), n);
    ar.target = arena<vertex_id>(std::move(target));
    ar.target_rank = arena<std::uint64_t>(std::move(target_rank));
    ar.target_out_degree = arena<std::uint64_t>(std::move(target_outdeg));
    ar.emeta = detail::make_meta_column<meta_column<EdgeMeta>>(std::move(emeta), m);
    ar.target_vmeta = detail::make_meta_column<meta_column<VertexMeta>>(std::move(tvmeta), m);
    return ar;
  }

  comm::communicator* comm_;
  /// (source, target, edge meta) half-edges, routed to the source's owner.
  comm::column_exchange<vertex_id, vertex_id, EdgeMeta> half_edges_;
  /// (vertex, meta) entries, routed to the vertex's owner.
  comm::column_exchange<vertex_id, VertexMeta> vertex_meta_;
  ordering_policy ordering_ = ordering_policy::degree;
  degeneracy_stats peel_stats_{};
  std::uint64_t dropped_self_loops_ = 0;
  bool built_ = false;
};

}  // namespace tripoll::graph
