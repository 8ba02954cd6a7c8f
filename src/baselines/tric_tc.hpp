// tric_tc.hpp -- TriC-style distributed triangle counting.
//
// Re-implementation of the communication structure of "TriC:
// Distributed-memory Triangle Counting by Exploiting the Graph Structure"
// (Ghosh & Halappanavar, HPEC'20), the 2020 GraphChallenge comparator of
// Table 2: vertices live in *contiguous, edge-balanced* 1D partitions,
// wedge-closure queries to remote owners are collected into one explicit
// batch per destination rank, and batches are exchanged in a bulk
// superstep (TriC's "batch-oriented scalable communication substrate").
//
// The contiguous partitioning is the interesting failure mode: hub vertices
// concentrate in a few ranks, so load imbalance grows with skew -- which is
// why TriC trails the asynchronous approaches on the paper's social graphs.
#pragma once

#include "baselines/pearce_tc.hpp"  // distributed_count_result
#include "comm/communicator.hpp"
#include "graph/frozen.hpp"
#include "graph/types.hpp"

namespace tripoll::baselines {

/// Collective: TriC-style batched triangle count over `g`.
[[nodiscard]] distributed_count_result tric_triangle_count(
    comm::communicator& c, graph::dodgr<graph::none, graph::none>& g);

}  // namespace tripoll::baselines
