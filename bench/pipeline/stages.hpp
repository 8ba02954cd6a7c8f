// stages.hpp -- collective pipeline stages shared by the workloads.
//
// Each stage is timed on the calling rank between barriers, so the time is
// what the whole job took, and recorded as a span named after the layer it
// calls into.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "common.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "service/survey_service.hpp"
#include "trace.hpp"

namespace tripoll::pipeline {

[[nodiscard]] inline survey_options survey_opts(int threads = kThreads) {
  return survey_options{survey_mode::push_pull, threads};
}

/// Collective: run `fn` under span `name`; returns the wall seconds from a
/// barrier before to a barrier after.
template <typename Fn>
double timed(comm::communicator& c, const char* name, Fn&& fn) {
  c.barrier();
  const auto t0 = clock_type::now();
  {
    trace::span s(name);
    fn();
    c.barrier();
  }
  return seconds_since(t0);
}

/// The measured loop of a workload: a "window.run" span and its wall time,
/// both paused while the benchmark verifies results.
class run_window {
 public:
  run_window() { resume(); }
  run_window(const run_window&) = delete;
  run_window& operator=(const run_window&) = delete;

  void pause() {
    span_.reset();
    seconds_ += seconds_since(start_);
  }
  void resume() {
    span_.emplace("window.run");
    start_ = clock_type::now();
  }
  /// Close the window; returns its measured seconds.
  double close() {
    if (span_) pause();
    return seconds_;
  }

 private:
  std::optional<trace::span> span_;
  clock_type::time_point start_;
  double seconds_ = 0.0;
};

/// Collective loop condition of a measured window: rank 0 decides (time
/// left, or fewer than `min_done` operations so far) and every rank follows.
[[nodiscard]] inline bool keep_going(comm::communicator& c, clock_type::time_point start,
                                     double seconds, std::size_t done, std::size_t min_done) {
  const bool go = c.rank0() && (seconds_since(start) < seconds || done < min_done);
  return c.broadcast(go, 0);
}

/// What building and freezing one graph cost.
struct build_cost {
  double build_s = 0.0;
  double freeze_s = 0.0;
  std::uint64_t build_bytes = 0;     ///< remote bytes of graph_builder's shuffles
  std::uint64_t build_messages = 0;
  double freeze_bytes_per_edge = 0.0;
  std::uint64_t hub_vertices = 0;    ///< vertices given a hub bitmap row
};

/// Collective: `feed(builder)` contributes this rank's edges, then
/// build_into() and freeze() run with the workload's thread count.
template <typename VM, typename EM, typename Merge = graph::merge::keep_existing,
          typename Feed>
graph::frozen_dodgr<VM, EM> build_and_freeze(comm::communicator& c, Feed&& feed,
                                             build_cost& cost) {
  graph::dodgr<VM, EM> g(c);
  const auto before = c.local_stats();
  cost.build_s = timed(c, "build.graph", [&] {
    graph::graph_builder<VM, EM, Merge> builder(c);
    feed(builder);
    builder.build_into(g);
  });
  const auto delta = c.local_stats() - before;
  cost.build_bytes = c.all_reduce_sum(delta.remote_bytes);
  cost.build_messages = c.all_reduce_sum(delta.messages_sent);

  graph::freeze_options fopts;
  fopts.threads = kThreads;
  std::optional<graph::frozen_dodgr<VM, EM>> frozen;
  cost.freeze_s = timed(c, "freeze.graph", [&] { frozen.emplace(graph::freeze(g, fopts)); });
  const auto st = frozen->global_storage_stats();
  cost.freeze_bytes_per_edge = st.bytes_per_edge();
  cost.hub_vertices = st.hub_vertices;
  return std::move(*frozen);
}

/// Median build/freeze costs of a workload's set-ups.
inline void report_build(outcome& out, const std::vector<build_cost>& costs) {
  std::vector<double> b, f;
  for (const auto& k : costs) {
    b.push_back(k.build_s);
    f.push_back(k.freeze_s);
  }
  const build_cost& last = costs.back();
  out.layer("build.s", median(b), "s", b.size());
  out.layer("build.bytes", static_cast<double>(last.build_bytes), "B");
  out.layer("build.messages", static_cast<double>(last.build_messages), "count");
  out.layer("freeze.s", median(f), "s", f.size());
  out.layer("freeze.bytes_per_edge", last.freeze_bytes_per_edge, "B");
  out.layer("freeze.hub_vertices", static_cast<double>(last.hub_vertices), "count");
}

/// One push-pull counting survey plus the final all-reduce of the count.
struct count_run {
  survey_result result;
  std::uint64_t triangles = 0;
  double survey_s = 0.0;
  double finalize_s = 0.0;
};

template <typename Graph>
count_run count_survey(comm::communicator& c, Graph& g, int threads = kThreads) {
  count_run out;
  callbacks::count_context ctx;
  c.barrier();
  const auto t0 = clock_type::now();
  {
    trace::span s("survey.run");
    out.result = callbacks::plan_for_reduced(g, callbacks::count_callback{}, ctx,
                                             callbacks::count_reduce{})
                     .run(survey_opts(threads))
                     .slice(0);
  }
  out.survey_s = seconds_since(t0);
  const auto t1 = clock_type::now();
  {
    trace::span s("comm.finalize");
    out.triangles = ctx.global_count(c);
  }
  out.finalize_s = seconds_since(t1);
  return out;
}

/// Per-layer context measured only in traced runs, after the window:
/// `survey_at(threads)` re-runs the workload's survey at 1 and at kThreads
/// threads (survey.thread_scaling), and one count unit runs through
/// service::run_units, the daemon's traversal (service.standalone_ms).
struct extras {
  std::vector<double> one_thread_s;
  std::vector<double> all_threads_s;
  std::vector<double> standalone_ms;
};

template <typename Graph, typename SurveyAt>
void measure_extras(comm::communicator& c, Graph& g, SurveyAt&& survey_at, extras& ex) {
  if (!trace::enabled()) return;
  for (int i = 0; i < kExtraReps; ++i) {
    // Alternate which runs first, so warm-up favours neither.
    double one = 0.0, all = 0.0;
    if (i % 2 == 0) {
      one = survey_at(1);
      all = survey_at(kThreads);
    } else {
      all = survey_at(kThreads);
      one = survey_at(1);
    }
    const double unit_s = timed(c, "service.run_units", [&] {
      const service::plan_unit count{static_cast<std::uint64_t>(service::unit_kind::count), 0};
      (void)service::run_units(g, {count}, service::kModePushPull, kThreads);
    });
    if (c.rank0()) {
      ex.one_thread_s.push_back(one);
      ex.all_threads_s.push_back(all);
      ex.standalone_ms.push_back(unit_s * 1e3);
    }
  }
}

inline void report_extras(outcome& out, const extras& ex) {
  if (ex.one_thread_s.empty()) return;
  out.layer("survey.thread_scaling", median(ex.one_thread_s) / median(ex.all_threads_s),
            "ratio", ex.one_thread_s.size());
  out.layer("service.standalone_ms", median(ex.standalone_ms), "ms", ex.standalone_ms.size());
}

}  // namespace tripoll::pipeline
