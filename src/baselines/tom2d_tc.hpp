// tom2d_tc.hpp -- Tom & Karypis-style 2D distributed triangle counting.
//
// Re-implementation of the communication structure of "A 2D Parallel
// Triangle Counting Algorithm for Distributed-Memory Architectures"
// (Tom & Karypis, ICPP'19), the Table 2 comparator that is fastest on
// mid-size social graphs but, as the paper notes, "requires a number of MPI
// ranks that is a perfect square" and favors throughput over scalability.
//
// The DODGr adjacency matrix L is hash-partitioned into a sqrt(P) x sqrt(P)
// block grid; the triangle count is the masked triple product sum(L.L o L),
// evaluated SUMMA-style: for each inner block index k, block L[i][k] is
// broadcast along grid row i, L[k][j] along grid column j, and rank (i,j)
// joins them against its resident mask block L[i][j].
#pragma once

#include "baselines/pearce_tc.hpp"  // distributed_count_result
#include "comm/communicator.hpp"
#include "graph/frozen.hpp"
#include "graph/types.hpp"

namespace tripoll::baselines {

/// True when `nranks` is a perfect square (tom2d's precondition).
[[nodiscard]] bool is_perfect_square(int nranks) noexcept;

/// Collective: 2D masked-SpGEMM triangle count.  Throws std::invalid_argument
/// when the communicator size is not a perfect square.
[[nodiscard]] distributed_count_result tom2d_triangle_count(
    comm::communicator& c, graph::dodgr<graph::none, graph::none>& g);

}  // namespace tripoll::baselines
