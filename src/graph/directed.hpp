// directed.hpp -- directed-input support (paper Sec. 4, second paragraph).
//
// TriPoll's engine operates on the symmetrized DODGr, so directed inputs
// are handled by remembering, per undirected edge, which original
// direction(s) existed: "each directed edge in the augmented graph may need
// an additional two bits of storage to give the original directionality
// (as-seen, reversed, or bidirectional) for use in the user callback".
//
// `directed_meta<EM>` carries those two bits next to the user's edge
// metadata; `directed_graph_builder` sets them from the contributed edge
// orientation and merges them with bitwise-or when both directions (or
// duplicates) arrive.
#pragma once

#include <cstdint>

#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/types.hpp"

namespace tripoll::graph {

/// Original direction of an undirected DODGr edge relative to a (from, to)
/// query orientation.
enum class edge_direction : std::uint8_t {
  as_seen = 1,        ///< the input contained from -> to only
  reversed = 2,       ///< the input contained to -> from only
  bidirectional = 3,  ///< both directions appeared
};

/// Edge metadata wrapper adding the paper's two directionality bits.
/// Bit 0: low-id -> high-id seen; bit 1: high-id -> low-id seen.
template <typename EdgeMeta>
struct directed_meta {
  EdgeMeta meta{};
  std::uint8_t flags = 0;

  /// Direction of this edge when traversed from `from` to `to` (the two
  /// endpoint ids; which is which determines the interpretation).
  [[nodiscard]] edge_direction direction(vertex_id from, vertex_id to) const noexcept {
    const bool low_to_high = (flags & 1u) != 0;
    const bool high_to_low = (flags & 2u) != 0;
    const bool query_is_low_to_high = from < to;
    const bool fwd = query_is_low_to_high ? low_to_high : high_to_low;
    const bool bwd = query_is_low_to_high ? high_to_low : low_to_high;
    if (fwd && bwd) return edge_direction::bidirectional;
    return fwd ? edge_direction::as_seen : edge_direction::reversed;
  }

  template <typename Archive>
  void serialize(Archive& ar) {
    ar(meta, flags);
  }

  friend bool operator==(const directed_meta&, const directed_meta&) = default;
};

namespace merge {

/// Merge policy for directed_meta: directionality bits accumulate with
/// bitwise-or; the inner policy merges the user metadata.
template <typename InnerPolicy>
struct directed {
  template <typename EM>
  void operator()(directed_meta<EM>& existing, const directed_meta<EM>& incoming) const {
    existing.flags = static_cast<std::uint8_t>(existing.flags | incoming.flags);
    InnerPolicy{}(existing.meta, incoming.meta);
  }
};

}  // namespace merge

/// Graph type for directed inputs.
template <typename VertexMeta, typename EdgeMeta>
using directed_dodgr = dodgr<VertexMeta, directed_meta<EdgeMeta>>;

/// Builder accepting *directed* edges; produces a `directed_dodgr` whose
/// edge metadata records original directionality.
template <typename VertexMeta, typename EdgeMeta,
          typename InnerMergePolicy = merge::keep_existing>
class directed_graph_builder {
 public:
  using graph_type = directed_dodgr<VertexMeta, EdgeMeta>;

  explicit directed_graph_builder(comm::communicator& c) : base_(c) {}

  /// Contribute the directed edge u -> v.
  void add_directed_edge(vertex_id u, vertex_id v, const EdgeMeta& meta = EdgeMeta{}) {
    directed_meta<EdgeMeta> wrapped;
    wrapped.meta = meta;
    wrapped.flags = u < v ? std::uint8_t{1} : std::uint8_t{2};
    base_.add_edge(u, v, wrapped);
  }

  void add_vertex_meta(vertex_id v, const VertexMeta& meta) {
    base_.add_vertex_meta(v, meta);
  }

  [[nodiscard]] std::uint64_t local_dropped_self_loops() const noexcept {
    return base_.local_dropped_self_loops();
  }

  /// Collective; see graph_builder::build_into.
  void build_into(graph_type& g) { base_.build_into(g); }

 private:
  graph_builder<VertexMeta, directed_meta<EdgeMeta>, merge::directed<InnerMergePolicy>>
      base_;
};

}  // namespace tripoll::graph
