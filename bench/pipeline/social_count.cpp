// social-count: an R-MAT social graph read from an edge-list file, surveyed
// by push-pull triangle counting.  The survey engine, its intersection
// kernels and file ingest do the work; no metadata travels, so
// serialization stays light.
#include <filesystem>
#include <optional>

#include "baselines/serial_tc.hpp"
#include "comm/runtime.hpp"
#include "gen/rmat.hpp"
#include "graph/io.hpp"
#include "stages.hpp"

namespace tripoll::pipeline {

namespace {

using plain_graph = graph::frozen_dodgr<graph::none, graph::none>;

constexpr int kSetups = 5;
constexpr std::size_t kMinSurveys = 5;

}  // namespace

outcome run_social_count(const options& opt) {
  outcome out;
  gen::rmat_params params;  // scale 16, edge factor 16, a=.57 b=c=.19
  params.seed = derive_seed(opt.seed, 0x50C1A1);
  const gen::rmat_generator rmat(params);

  // Inputs, untimed: the edge-list file, and its triangle count from the
  // serial baseline in a child process.
  work_files files;
  const std::string path = work_path("social.el");
  files.add(path);
  std::uint64_t expected = 0;
  double serial_tc_s = 0.0;
  {
    std::vector<graph::edge> edges(rmat.num_edges());
    for (std::uint64_t k = 0; k < edges.size(); ++k) edges[k] = rmat.edge_at(k);
    {
      graph::edge_list_writer writer(path);
      for (const auto& e : edges) writer.write(e.u, e.v);
    }
    const words ref = run_in_child([&] {
      const auto t0 = clock_type::now();
      const std::uint64_t n = baselines::serial_triangle_count(edges);
      return words{n, f64_word(seconds_since(t0))};
    });
    expected = ref.at(0);
    serial_tc_s = word_f64(ref.at(1));
  }
  const auto file_bytes = static_cast<double>(std::filesystem::file_size(path));

  std::vector<double> setup_s, read_s;
  std::vector<build_cost> builds;
  survey_series series;
  std::vector<double> reply_ms;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;  // (all-reduced, engine)
  double window_s = 0.0;
  extras ex;
  comm::runtime::run(kRanks, [&](comm::communicator& c) {
    trace::set_rank(c.rank());
    std::optional<plain_graph> g;
    for (int rep = 0; rep < kSetups; ++rep) {
      g.reset();
      c.barrier();
      const auto t0 = clock_type::now();
      trace::span window("window.setup");
      std::vector<graph::edge> local;
      const double rs = timed(c, "io.read_edge_list", [&] {
        graph::ingest_options io;
        io.threads = kThreads;
        (void)graph::read_edge_list(
            c, path, [&](const graph::parsed_edge& e) { local.push_back({e.u, e.v}); }, io);
      });
      build_cost cost;
      g.emplace(build_and_freeze<graph::none, graph::none>(
          c,
          [&](auto& builder) {
            for (const auto& e : local) builder.add_edge(e.u, e.v);
            local = {};
          },
          cost));
      const double total = seconds_since(t0);
      if (c.rank0()) {
        setup_s.push_back(total);
        read_s.push_back(rs);
        builds.push_back(cost);
      }
    }

    c.barrier();
    const auto loop0 = clock_type::now();
    run_window window;
    while (keep_going(c, loop0, opt.seconds, series.seconds.size(), kMinSurveys)) {
      const count_run run = count_survey(c, *g);
      if (c.rank0()) {
        series.add(run.result, run.survey_s, run.finalize_s);
        reply_ms.push_back((run.survey_s + run.finalize_s) * 1e3);
        counts.emplace_back(run.triangles, run.result.triangles_found);
      }
    }
    const double w = window.close();
    if (c.rank0()) window_s = w;
    measure_extras(c, *g, [&](int threads) { return count_survey(c, *g, threads).survey_s; },
                   ex);
  });

  out.attempted = kSetups + series.seconds.size();
  for (const auto& [n, engine] : counts) {
    out.expect(n == expected && engine == expected,
               "social-count: survey counted " + std::to_string(n) + " triangles (engine " +
                   std::to_string(engine) + "), serial baseline " + std::to_string(expected));
  }
  if (!counts.empty()) out.digest = mix(0x50C1A1, counts.front().first);

  out.e2e("setup_s", median(setup_s), "s", setup_s.size());
  report_survey_e2e(out, series);
  report_replies(out, reply_ms, window_s);

  out.layer("io.mb_per_s", file_bytes / 1e6 / median(read_s), "MB/s", read_s.size());
  out.layer("io.bytes", file_bytes, "B");
  report_build(out, builds);
  report_survey_layers(out, series, serial_tc_s);
  report_extras(out, ex);
  return out;
}

}  // namespace tripoll::pipeline
