// ordering.hpp -- pluggable vertex-ordering policies for DODGr construction.
//
// TriPoll's push/pull decisions and wedge-closing cost are driven entirely by
// the vertex order `<+` (paper Secs. 3/4.3).  The seed implementation
// hard-codes degree order; Pashanasangi & Seshadhri ("Faster and Generalized
// Temporal Triangle Counting, via Degeneracy Ordering") show that ordering by
// the k-core peel sequence bounds every out-degree by the graph degeneracy,
// shrinking |W+| = sum_v C(d+(v), 2) well below what raw degree order
// achieves on skewed graphs.
//
// The subsystem has two parts:
//   * `ordering_policy` selects how the builder assigns each vertex its
//     ordering rank (the first component of `order_key`):
//       - degree:     rank = d(v), the seed behavior.
//       - degeneracy: rank = the vertex's peel-wave index from a distributed
//                     k-core peeling pass (below).
//   * `degeneracy_peel` runs that peeling pass collectively over the
//     builder's rank-local undirected CSR (`local_adjacency`).
//
// Peeling proceeds in globally synchronized *waves*.  At level k, every
// still-alive vertex whose remaining degree is <= k is removed in the current
// wave and notifies each neighbor once; the notifications travel as batched
// column RPCs (comm/column_exchange.hpp) and a barrier lands them all before
// the next wave's scan.
//
// Determinism guarantee (relied on by frozen snapshots and cross-backend
// result identity): a vertex's wave index -- and therefore its full order
// key (wave, splitmix64(id), id), whose hash/id components depend on nothing
// but the id -- is a pure structural function of the edge set, identical
// across rank counts, transport backends and message timing.  Two mechanisms
// enforce this:
//
//   * The scan performs no communication, so wave membership is decided
//     against a fixed snapshot of `remaining`.
//   * Decrement notifications never touch `remaining` on arrival.  They wait
//     in the exchange's inbox and are folded into `remaining` at exactly one
//     point per wave, immediately after the wave's barrier.  Without the fold
//     there is a barrier-exit race: the collectives that follow the barrier
//     stagger rank exits, so a fast rank's wave-w+1 decrements could reach a
//     slow rank either before or after its wave-w+1 scan, making membership
//     timing-dependent.  With it, `remaining` at the wave-w scan equals
//     (initial degree - all decrements from waves < w) exactly: the barrier
//     guarantees every wave-(w-1) decrement has arrived by the fold, and no
//     wave-w decrement can be sent until its sender passes the collective
//     the folding rank enters only after emptying its inbox.
//
// A vertex removed in wave w has at most k not-yet-removed neighbors, and
// every neighbor ordered after it (same wave or later) is not-yet-removed,
// so out-degrees under the (wave, hash, id) order are bounded by the
// degeneracy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "comm/column_exchange.hpp"
#include "comm/communicator.hpp"
#include "comm/key_hash.hpp"
#include "graph/types.hpp"

namespace tripoll::graph {

/// How the builder assigns ordering ranks (the first `order_key` component).
enum class ordering_policy : std::uint8_t {
  degree,      ///< rank = undirected degree (the paper's <+ order)
  degeneracy,  ///< rank = k-core peel-wave index (Pashanasangi & Seshadhri)
};

[[nodiscard]] constexpr const char* ordering_name(ordering_policy p) noexcept {
  switch (p) {
    case ordering_policy::degree: return "degree";
    case ordering_policy::degeneracy: return "degeneracy";
  }
  return "unknown";
}

/// Parse a CLI-style ordering name; nullopt on anything unrecognized.
[[nodiscard]] inline std::optional<ordering_policy> parse_ordering(
    std::string_view s) noexcept {
  if (s == "degree") return ordering_policy::degree;
  if (s == "degeneracy") return ordering_policy::degeneracy;
  return std::nullopt;
}

/// Collective summary of one peeling pass (identical on every rank).
struct degeneracy_stats {
  std::uint64_t degeneracy = 0;  ///< max peel level k that removed a vertex
  std::uint64_t waves = 0;       ///< total synchronized removal waves
  std::uint64_t vertices = 0;    ///< global vertex count peeled
};

/// One rank's undirected adjacency in CSR form: `vid` ascending, the
/// (unique) neighbor ids of vid[i] in nbr[offset[i], offset[i+1]).
struct local_adjacency {
  std::span<const vertex_id> vid;
  std::span<const std::uint64_t> offset;
  std::span<const vertex_id> nbr;

  [[nodiscard]] std::size_t size() const noexcept { return vid.size(); }
  [[nodiscard]] std::uint64_t degree(std::size_t i) const noexcept {
    return offset[i + 1] - offset[i];
  }
  /// Index of local vertex `v`, or size() when `v` is not stored here.
  [[nodiscard]] std::size_t slot_of(vertex_id v) const noexcept {
    const auto it = std::lower_bound(vid.begin(), vid.end(), v);
    return it != vid.end() && *it == v ? static_cast<std::size_t>(it - vid.begin())
                                       : size();
  }
};

/// Collective: distributed k-core peeling over every rank's `g`.  On return
/// `wave_of[i]` holds vid[i]'s wave index; waves are comparable across the
/// whole graph and deterministic for a given edge set.
inline degeneracy_stats degeneracy_peel(comm::communicator& c, const local_adjacency& g,
                                        std::vector<std::uint64_t>& wave_of) {
  const std::size_t n = g.size();
  std::vector<std::uint64_t> remaining(n);
  std::vector<std::uint8_t> removed(n, 0);
  std::vector<std::size_t> alive(n);
  for (std::size_t i = 0; i < n; ++i) {
    remaining[i] = g.degree(i);
    alive[i] = i;
  }
  wave_of.assign(n, 0);
  comm::column_exchange<vertex_id> decrements(c);

  degeneracy_stats stats;
  stats.vertices = c.all_reduce_sum<std::uint64_t>(n);
  std::uint64_t global_alive = stats.vertices;
  std::uint64_t wave = 0;
  std::uint64_t level = 0;

  while (global_alive > 0) {
    // Jump the peel level straight to the globally smallest remaining degree
    // (skipping empty levels costs one reduction instead of one per level).
    std::uint64_t local_min = std::numeric_limits<std::uint64_t>::max();
    for (const std::size_t i : alive) local_min = std::min(local_min, remaining[i]);
    level = std::max(level, c.all_reduce_min(local_min));
    stats.degeneracy = std::max(stats.degeneracy, level);

    // Waves at this level until quiescent.
    while (true) {
      // Mark: a vertex joins this wave iff its remaining degree after the
      // previous wave's fold is <= level.
      std::vector<std::size_t> removed_now;
      std::size_t kept = 0;
      for (const std::size_t i : alive) {
        if (remaining[i] <= level) {
          removed[i] = 1;
          wave_of[i] = wave;
          removed_now.push_back(i);
        } else {
          alive[kept++] = i;
        }
      }
      alive.resize(kept);
      // Notify: each removed vertex decrements every neighbor exactly once.
      for (const std::size_t i : removed_now) {
        for (std::uint64_t e = g.offset[i]; e < g.offset[i + 1]; ++e) {
          const vertex_id u = g.nbr[e];
          decrements.push(c.owner(comm::key_hash<vertex_id>{}(u)), u);
        }
      }
      decrements.flush();
      c.barrier();  // all of this wave's decrements are in the inbox by now
      // Fold point: the single place `remaining` moves.  No wave-(w+1)
      // decrement can exist yet (its sender is gated behind the all_reduce
      // below, which this rank has not entered), so the fold captures
      // exactly the decrements of waves <= w -- structurally determined.
      for (const vertex_id u : std::get<0>(decrements.inbox())) {
        const std::size_t i = g.slot_of(u);
        if (i < n && removed[i] == 0 && remaining[i] > 0) --remaining[i];
      }
      decrements.release_inbox();
      const auto global_removed = c.all_reduce_sum<std::uint64_t>(removed_now.size());
      if (global_removed == 0) break;
      ++wave;
      global_alive -= global_removed;
      if (global_alive == 0) break;
    }
  }
  stats.waves = wave;
  return stats;
}

}  // namespace tripoll::graph
