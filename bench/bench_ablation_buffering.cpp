// bench_ablation_buffering -- ablation of the message-buffering threshold
// (DESIGN.md choice M3; paper Sec. 4.1.1: buffering small RPCs into large
// transport messages is the core of YGM's scalability story).
//
// Sweeps the per-destination flush threshold from "nearly unbuffered" to
// large, measuring survey runtime and transport buffer counts.  Expected
// shape: tiny buffers explode the number of transport messages and slow
// everything down; returns diminish after a few KiB.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "graph/frozen.hpp"

namespace cb = tripoll::callbacks;
namespace comm = tripoll::comm;
namespace gen = tripoll::gen;

int main() {
  const int delta = tripoll::bench::scale_delta_from_env(-1);
  const int ranks = std::min(tripoll::bench::max_ranks_from_env(), 8);
  const auto spec = gen::standard_suite(delta)[1];  // twitter-like

  tripoll::bench::print_header(
      "Ablation: per-destination buffer flush threshold (YGM buffering)",
      "Sec. 4.1.1 design choice");
  std::printf("dataset: %s, %d ranks\n\n", spec.name.c_str(), ranks);
  std::printf("%12s %10s %14s %14s %12s\n", "buffer", "time(s)", "transport bufs",
              "RPC messages", "bytes/buf");
  tripoll::bench::print_rule(68);

  for (const std::size_t capacity :
       {std::size_t{64}, std::size_t{512}, std::size_t{4096}, std::size_t{16384},
        std::size_t{65536}, std::size_t{262144}}) {
    comm::config cfg;
    cfg.buffer_capacity = capacity;
    tripoll::survey_result result;
    comm::stats_snapshot before{}, after{};
    comm::runtime::run(
        ranks,
        [&](comm::communicator& c) {
          gen::plain_graph g(c);
          gen::build_dataset(c, g, spec);
          auto fz = tripoll::graph::freeze(g);
          c.barrier();
          if (c.rank0()) before = c.stats();
          c.barrier();
          cb::count_context ctx;
          result = tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                                            {tripoll::survey_mode::push_pull});
          if (c.rank0()) after = c.stats();
          c.barrier();
        },
        cfg);
    const auto bufs = after.buffers_sent - before.buffers_sent;
    const auto msgs = after.messages_sent - before.messages_sent;
    const auto bytes = (after.remote_bytes + after.local_bytes) -
                       (before.remote_bytes + before.local_bytes);
    std::printf("%12s %10.3f %14s %14s %12s\n",
                tripoll::bench::human_bytes(capacity).c_str(), result.total.seconds,
                tripoll::bench::human_count(bufs).c_str(),
                tripoll::bench::human_count(msgs).c_str(),
                tripoll::bench::human_bytes(bufs > 0 ? bytes / bufs : 0).c_str());
  }
  return 0;
}
