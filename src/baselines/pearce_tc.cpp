#include "baselines/pearce_tc.hpp"

#include <algorithm>
#include <chrono>

namespace tripoll::baselines {

namespace {

using plain_graph = graph::dodgr<graph::none, graph::none>;

/// Rank-local state for one counting run, addressed by handlers.
struct pearce_state {
  plain_graph* g = nullptr;
  std::uint64_t local_count = 0;
};

struct wedge_query_handler {
  void operator()(comm::communicator& c, comm::dist_handle<pearce_state> h,
                  graph::vertex_id q, graph::vertex_id r, std::uint64_t r_rank) {
    pearce_state& st = c.resolve(h);
    const auto rec = st.g->local_find(q);
    if (!rec) return;
    const auto key = graph::make_order_key(r, r_rank);
    const auto it = std::lower_bound(
        rec->adj.begin(), rec->adj.end(), key,
        [](const auto& e, const graph::order_key& k) { return e.key() < k; });
    if (it != rec->adj.end() && (*it).target == r) ++st.local_count;
  }
};

}  // namespace

distributed_count_result pearce_triangle_count(comm::communicator& c,
                                               plain_graph& g) {
  pearce_state state;
  state.g = &g;
  const auto handle = c.register_object(state);
  c.barrier();

  const auto stats_before = c.local_stats();
  c.barrier();
  const auto t0 = std::chrono::steady_clock::now();

  g.for_all_local([&](const graph::vertex_id&, const plain_graph::record_type& rec) {
    // One query per wedge: (q_i, r_j) for every i < j in Adj+(p).
    for (std::size_t i = 0; i + 1 < rec.adj.size(); ++i) {
      const auto& q = rec.adj[i];
      for (std::size_t j = i + 1; j < rec.adj.size(); ++j) {
        const auto& r = rec.adj[j];
        c.async(g.owner(q.target), wedge_query_handler{}, handle, q.target, r.target,
                r.target_rank);
      }
    }
  });
  c.barrier();

  const double elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - t0).count();
  const auto delta = c.local_stats() - stats_before;

  distributed_count_result result;
  result.triangles = c.all_reduce_sum(state.local_count);
  result.seconds = c.all_reduce_max(elapsed);
  result.volume_bytes = c.all_reduce_sum(delta.remote_bytes);
  result.messages = c.all_reduce_sum(delta.messages_sent);
  c.deregister_object(handle);
  return result;
}

}  // namespace tripoll::baselines
