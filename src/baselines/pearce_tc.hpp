// pearce_tc.hpp -- Pearce-et-al.-style distributed triangle counting.
//
// Re-implementation of the communication pattern of "Triangle counting for
// scale-free graphs at scale in distributed memory" (Pearce, HPEC'17) and
// [41], the comparator the paper beats by ~1.8-6.8x (Table 2): the graph is
// degree-ordered, and every wedge (p; q, r) generates an individual
// asynchronous *query* message to the owner of q asking whether the closing
// edge (q, r) exists.  Contrast with TriPoll, which ships each (p, q)
// adjacency suffix as one batched message: per-wedge querying sends a fixed
// ~25-byte payload per wedge check and cannot exploit suffix aggregation,
// which is exactly the volume gap the comparison measures.
//
// (The original also prunes degree-1 vertices iteratively; at the scales of
// this reproduction that preprocessing does not change the ordering of the
// comparison and is omitted.)
#pragma once

#include <cstdint>

#include "comm/communicator.hpp"
#include "graph/frozen.hpp"
#include "graph/types.hpp"

namespace tripoll::baselines {

struct distributed_count_result {
  std::uint64_t triangles = 0;
  double seconds = 0.0;               ///< max over ranks
  std::uint64_t volume_bytes = 0;     ///< remote bytes, global
  std::uint64_t messages = 0;         ///< logical RPCs, global
};

/// Collective: count triangles of `g` with per-wedge closure queries.
[[nodiscard]] distributed_count_result pearce_triangle_count(
    comm::communicator& c, graph::dodgr<graph::none, graph::none>& g);

}  // namespace tripoll::baselines
