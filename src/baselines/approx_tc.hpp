// approx_tc.hpp -- wedge-sampling approximate triangle counting.
//
// The paper notes (Sec. 1) that "techniques that approximate triangle
// counts [often] suffice for an application" -- the reason TriPoll's exact,
// metadata-aware processing needs justifying.  This baseline implements the
// standard alternative: sample wedges of the DODGr uniformly, query the
// closing edge, and scale.  Because every triangle closes exactly one DODGr
// wedge, the estimator
//
//     T_hat = |W+| * closed_samples / total_samples
//
// is unbiased, with standard error |W+| * sqrt(p(1-p)/n).
#pragma once

#include <cstdint>

#include "comm/communicator.hpp"
#include "graph/frozen.hpp"
#include "graph/types.hpp"

namespace tripoll::baselines {

struct approx_count_result {
  double estimate = 0.0;
  std::uint64_t samples = 0;        ///< wedges actually sampled (global)
  std::uint64_t closed = 0;         ///< sampled wedges found closed (global)
  std::uint64_t total_wedges = 0;   ///< |W+|
  double seconds = 0.0;
};

/// Collective: estimate |T| from `target_samples` sampled wedge checks
/// (distributed proportionally to each rank's wedge count).
[[nodiscard]] approx_count_result approx_triangle_count(
    comm::communicator& c, graph::dodgr<graph::none, graph::none>& g,
    std::uint64_t target_samples, std::uint64_t seed = 1);

}  // namespace tripoll::baselines
