#include "baselines/approx_tc.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "serial/hash.hpp"

namespace tripoll::baselines {

namespace {

using plain_graph = graph::dodgr<graph::none, graph::none>;

struct approx_state {
  plain_graph* g = nullptr;
  std::uint64_t closed = 0;
};

struct closure_probe_handler {
  void operator()(comm::communicator& c, comm::dist_handle<approx_state> h,
                  graph::vertex_id q, graph::vertex_id r, std::uint64_t r_rank) {
    approx_state& st = c.resolve(h);
    const auto rec = st.g->local_find(q);
    if (!rec) return;
    const auto key = graph::make_order_key(r, r_rank);
    const auto it = std::lower_bound(
        rec->adj.begin(), rec->adj.end(), key,
        [](const auto& e, const graph::order_key& k) { return e.key() < k; });
    if (it != rec->adj.end() && (*it).target == r) ++st.closed;
  }
};

[[nodiscard]] double to_unit(std::uint64_t s) noexcept {
  return static_cast<double>(s >> 11) * 0x1.0p-53;
}

/// Decode the `index`-th pair (i < j) among C(n, 2) pairs in lexicographic
/// order.
void unrank_pair(std::uint64_t index, std::uint64_t n, std::uint64_t& i,
                 std::uint64_t& j) {
  // Row i holds (n - 1 - i) pairs; walk rows (n is an adjacency length, so
  // this linear walk is bounded by the max out-degree).
  std::uint64_t row = 0;
  std::uint64_t remaining = index;
  while (remaining >= n - 1 - row) {
    remaining -= n - 1 - row;
    ++row;
  }
  i = row;
  j = row + 1 + remaining;
}

}  // namespace

approx_count_result approx_triangle_count(comm::communicator& c, plain_graph& g,
                                          std::uint64_t target_samples,
                                          std::uint64_t seed) {
  approx_state state;
  state.g = &g;
  const auto handle = c.register_object(state);
  c.barrier();
  const auto t0 = std::chrono::steady_clock::now();

  // Local wedge census and cumulative index for weighted vertex sampling.
  std::vector<std::pair<graph::vertex_id, std::uint64_t>> cumulative;  // (v, prefix)
  std::uint64_t local_wedges = 0;
  g.for_all_local([&](const graph::vertex_id& v, const plain_graph::record_type& rec) {
    const std::uint64_t d = rec.out_degree();
    const std::uint64_t w = d >= 2 ? d * (d - 1) / 2 : 0;
    if (w == 0) return;
    local_wedges += w;
    cumulative.emplace_back(v, local_wedges);
  });
  const std::uint64_t total_wedges = c.all_reduce_sum(local_wedges);

  // Each rank draws samples proportional to its wedge share.
  std::uint64_t local_samples = 0;
  if (total_wedges > 0 && local_wedges > 0) {
    local_samples = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(target_samples) *
                     static_cast<double>(local_wedges) /
                     static_cast<double>(total_wedges)));
  }

  std::uint64_t rng = serial::splitmix64(seed ^ (0x5EEDull + static_cast<std::uint64_t>(c.rank())));
  for (std::uint64_t s = 0; s < local_samples; ++s) {
    rng = serial::splitmix64(rng);
    const auto pick =
        static_cast<std::uint64_t>(to_unit(rng) * static_cast<double>(local_wedges));
    const auto it = std::upper_bound(
        cumulative.begin(), cumulative.end(), pick,
        [](std::uint64_t value, const auto& entry) { return value < entry.second; });
    const graph::vertex_id p = it->first;
    const auto rec = g.local_find(p);
    const std::uint64_t d = rec->out_degree();
    const std::uint64_t wedges_at_p = d * (d - 1) / 2;
    rng = serial::splitmix64(rng);
    const auto windex =
        static_cast<std::uint64_t>(to_unit(rng) * static_cast<double>(wedges_at_p));
    std::uint64_t i = 0, j = 0;
    unrank_pair(windex, d, i, j);
    const auto& q = rec->adj[i];
    const auto& r = rec->adj[j];
    c.async(g.owner(q.target), closure_probe_handler{}, handle, q.target, r.target,
            r.target_rank);
  }
  c.barrier();

  approx_count_result result;
  result.samples = c.all_reduce_sum(local_samples);
  result.closed = c.all_reduce_sum(state.closed);
  result.total_wedges = total_wedges;
  result.estimate = result.samples > 0
                        ? static_cast<double>(total_wedges) *
                              static_cast<double>(result.closed) /
                              static_cast<double>(result.samples)
                        : 0.0;
  result.seconds = c.all_reduce_max(std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count());
  c.deregister_object(handle);
  return result;
}

}  // namespace tripoll::baselines
