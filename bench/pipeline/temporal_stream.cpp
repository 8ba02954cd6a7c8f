// temporal-stream: writes beside reads on one graph, in the time-window
// model of Jha, Seshadhri and Pinar.  A Reddit-like temporal graph is split
// at its median timestamp: the first half is built and frozen, the second
// half arrives as time-ordered batches through graph::overlay.  After every
// batch a closure-time survey answers over the most recent span/8; every
// tenth batch expires edges older than span/4, compacts the overlay into a
// fresh frozen graph and wraps it again.  Overlay ingest dominates, and the
// surveys take the overlay's (generic) engine path.
#include <algorithm>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "baselines/serial_tc.hpp"
#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "gen/temporal.hpp"
#include "graph/overlay.hpp"
#include "stages.hpp"

namespace tripoll::pipeline {

namespace {

using ts_graph = graph::frozen_dodgr<graph::none, std::uint64_t>;
using ts_overlay = graph::overlay<graph::none, std::uint64_t>;

constexpr int kSetups = 5;
constexpr std::size_t kBatches = 50;
constexpr std::size_t kBatchesPerSegment = 10;
constexpr std::size_t kSegments = kBatches / kBatchesPerSegment;

/// The generated stream: edges sorted by timestamp, split at the median.
struct stream {
  std::vector<gen::temporal_edge> base;
  std::vector<std::vector<gen::temporal_edge>> batches;
  std::uint64_t span = 0;  ///< the generator's whole time span, seconds

  /// The newest timestamp seen after batch b, plus one: the window's end.
  [[nodiscard]] std::uint64_t now_after(std::size_t b) const {
    return batches[b].back().timestamp + 1;
  }
  [[nodiscard]] std::uint64_t window_start(std::size_t b) const {
    return now_after(b) - span / 8;
  }
  [[nodiscard]] std::uint64_t expire_at(std::size_t b) const {
    return now_after(b) - span / 4;
  }
};

stream make_stream(std::uint64_t seed) {
  gen::temporal_params p;
  p.scale = 15;
  p.seed = derive_seed(seed, 0x7E3F);
  const gen::temporal_generator g(p);
  std::vector<gen::temporal_edge> all(g.num_edges());
  for (std::uint64_t k = 0; k < all.size(); ++k) all[k] = g.edge_at(k);
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.timestamp < b.timestamp;
  });
  stream s;
  s.span = p.span_seconds;
  const std::size_t half = all.size() / 2;
  s.base.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(half));
  const std::size_t rest = all.size() - half;
  for (std::size_t b = 0; b < kBatches; ++b) {
    s.batches.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(half + rest * b / kBatches),
                           all.begin() + static_cast<std::ptrdiff_t>(half + rest * (b + 1) / kBatches));
  }
  return s;
}

/// Serial model of the stream's edge set: the base keeps each edge's first
/// timestamp, a batch keeps its first copy of an edge and drops edges
/// already stored, and expiry removes edges older than its cut.  Returns,
/// per segment end, {edges, triangles}, then the serial count's seconds.
words reference(const stream& s) {
  std::unordered_map<std::uint64_t, std::uint64_t> live;
  const auto key = [](const gen::temporal_edge& e) {
    return (std::min(e.u, e.v) << 32) | std::max(e.u, e.v);
  };
  const auto keep_least = [&](std::unordered_map<std::uint64_t, std::uint64_t>& m,
                              const gen::temporal_edge& e) {
    if (e.u == e.v) return;
    const auto [it, inserted] = m.emplace(key(e), e.timestamp);
    if (!inserted) it->second = std::min(it->second, e.timestamp);
  };
  for (const auto& e : s.base) keep_least(live, e);
  words out;
  double serial_s = 0.0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    std::unordered_map<std::uint64_t, std::uint64_t> batch;
    for (const auto& e : s.batches[b]) keep_least(batch, e);
    for (const auto& kv : batch) live.insert(kv);
    if ((b + 1) % kBatchesPerSegment != 0) continue;
    const std::uint64_t cut = s.expire_at(b);
    std::erase_if(live, [cut](const auto& kv) { return kv.second < cut; });
    std::vector<graph::edge> edges;
    edges.reserve(live.size());
    for (const auto& [k, ts] : live) edges.push_back({k >> 32, k & 0xffffffffull});
    const auto t0 = clock_type::now();
    const std::uint64_t triangles = baselines::serial_triangle_count(edges);
    if (serial_s == 0.0) serial_s = seconds_since(t0);
    out.push_back(edges.size());
    out.push_back(triangles);
  }
  out.push_back(f64_word(serial_s));
  return out;
}

/// A windowed closure-time survey and its histogram digest.
struct closure_run {
  survey_result result;
  double survey_s = 0.0;
  double finalize_s = 0.0;
  std::uint64_t digest = 0;
};

template <typename Graph>
closure_run closure_survey(comm::communicator& c, Graph& g, std::uint64_t t0,
                           std::uint64_t t1, int threads) {
  closure_run out;
  comm::counting_set<callbacks::closure_bin> counters(c);
  callbacks::closure_time_context ctx{&counters};
  c.barrier();
  const auto start = clock_type::now();
  {
    trace::span s("survey.run");
    out.result = callbacks::plan_for(g, callbacks::closure_time_callback{}, ctx)
                     .window(t0, t1)
                     .run(survey_opts(threads))
                     .slice(0);
  }
  out.survey_s = seconds_since(start);
  const auto fin = clock_type::now();
  {
    trace::span s("comm.finalize");
    counters.finalize();
  }
  out.finalize_s = seconds_since(fin);
  trace::span s("workload.check");
  std::uint64_t local = 0;
  counters.for_all_local([&](const callbacks::closure_bin& bin, std::uint64_t n) {
    local += mix(mix(bin.first, bin.second), n);
  });
  out.digest = mix(c.all_reduce_sum(local), out.result.triangles_found);
  return out;
}

}  // namespace

outcome run_temporal_stream(const options& opt) {
  outcome out;
  const stream s = make_stream(opt.seed);
  const words ref = run_in_child([&] { return reference(s); });
  const double serial_tc_s = word_f64(ref.at(2 * kSegments));

  std::vector<double> setup_s;
  std::vector<build_cost> builds;
  survey_series series;
  std::vector<double> reply_ms;
  std::vector<double> ingest_s, expire_s, compact_s;
  std::uint64_t accepted = 0, submitted = 0, rebuilt = 0, expired = 0, compacted_edges = 0;
  std::vector<std::uint64_t> batch_digests;    // the first pass's answers, per batch
  std::vector<std::uint64_t> segment_counts;   // and its compacted triangle counts
  double window_s = 0.0;
  extras ex;
  comm::runtime::run(kRanks, [&](comm::communicator& c) {
    trace::set_rank(c.rank());
    const bool lead = c.rank0();
    // Each rank feeds its stripe of every batch, like a distributed feed.
    const auto stripe = [&](const std::vector<gen::temporal_edge>& v) {
      ts_overlay::edge_batch mine;
      for (std::size_t i = static_cast<std::size_t>(c.rank()); i < v.size(); i += kRanks) {
        mine.push_back({v[i].u, v[i].v, v[i].timestamp});
      }
      return mine;
    };
    std::vector<ts_overlay::edge_batch> batches;
    for (const auto& b : s.batches) batches.push_back(stripe(b));
    const ts_overlay::edge_batch base_edges = stripe(s.base);

    std::optional<ts_graph> base;
    for (int rep = 0; rep < kSetups; ++rep) {
      base.reset();
      c.barrier();
      const auto t0 = clock_type::now();
      trace::span window("window.setup");
      build_cost cost;
      base.emplace(build_and_freeze<graph::none, std::uint64_t, graph::merge::keep_least>(
          c,
          [&](auto& builder) {
            for (const auto& e : base_edges) builder.add_edge(e.u, e.v, e.meta);
          },
          cost));
      const double total = seconds_since(t0);
      if (lead) {
        setup_s.push_back(total);
        builds.push_back(cost);
      }
    }

    // Each pass streams all 50 batches from the frozen base; passes repeat
    // while time is left.  Only whole passes run, so every run averages the
    // same set of surveys however fast the host is.
    std::optional<ts_overlay> ov;
    c.barrier();
    const auto loop0 = clock_type::now();
    {
      run_window window;
      for (std::size_t done = 0;
           done % kSegments != 0 || keep_going(c, loop0, opt.seconds, done, kSegments);
           ++done) {
        const std::size_t seg = done % kSegments;
        if (seg == 0) {
          ov.reset();
          trace::span w("overlay.wrap");
          ov.emplace(*base);
        }
        std::size_t b = seg * kBatchesPerSegment;
        for (; b < (seg + 1) * kBatchesPerSegment; ++b) {
          c.barrier();
          const auto t0 = clock_type::now();
          graph::overlay_ingest_stats st;
          {
            trace::span sp("overlay.ingest");
            st = ov->ingest(batches[b]);
          }
          const double in_s = seconds_since(t0);
          const closure_run run =
              closure_survey(c, *ov, s.window_start(b), s.now_after(b), kThreads);
          if (lead) {
            ingest_s.push_back(in_s);
            accepted += st.accepted;
            submitted += st.submitted;
            rebuilt += st.rebuilt_vertices;
            series.add(run.result, run.survey_s, run.finalize_s);
            reply_ms.push_back((in_s + run.survey_s + run.finalize_s) * 1e3);
            if (done < kSegments) {
              batch_digests.push_back(run.digest);
            } else {
              out.expect(run.digest == batch_digests[b],
                         "temporal-stream: batch " + std::to_string(b) +
                             " answered differently on a later pass");
            }
          }
        }
        --b;  // the segment's last batch

        graph::overlay_ingest_stats est;
        const double ex_s =
            timed(c, "overlay.expire", [&] { est = ov->expire_before(s.expire_at(b)); });
        std::optional<ts_graph> frozen;
        graph::freeze_options fopts;
        fopts.threads = kThreads;
        double cp_s = timed(c, "overlay.compact", [&] { frozen.emplace(ov->compact(fopts)); });

        // Verification, outside the measured window: compact() leaves the
        // overlay as it was, so both answer the same windowed survey.
        window.pause();
        const closure_run before =
            closure_survey(c, *ov, s.window_start(b), s.now_after(b), kThreads);
        const closure_run after =
            closure_survey(c, *frozen, s.window_start(b), s.now_after(b), kThreads);
        const count_run count = count_survey(c, *frozen);
        const std::uint64_t edges = frozen->global_storage_stats().edges;
        window.resume();

        cp_s += timed(c, "overlay.wrap", [&] {
          ov.reset();
          ov.emplace(*frozen);
        });
        if (lead) {
          expire_s.push_back(ex_s);
          compact_s.push_back(cp_s);
          expired += est.expired_edges;
          compacted_edges += edges;
          out.expect(before.digest == after.digest,
                     "temporal-stream: compact() changed the windowed survey's answer");
          out.expect(edges == ref.at(2 * seg) && count.triangles == ref.at(2 * seg + 1),
                     "temporal-stream: segment " + std::to_string(seg) + " holds " +
                         std::to_string(edges) + " edges / " + std::to_string(count.triangles) +
                         " triangles, serial model " + std::to_string(ref.at(2 * seg)) + " / " +
                         std::to_string(ref.at(2 * seg + 1)));
          if (done < kSegments) segment_counts.push_back(count.triangles);
        }
      }
      const double w = window.close();
      if (lead) window_s = w;
    }
    const std::size_t last = kBatches - 1;
    measure_extras(c, *ov, [&](int threads) {
      return closure_survey(c, *ov, s.window_start(last), s.now_after(last), threads).survey_s;
    }, ex);
  });

  out.attempted = kSetups + reply_ms.size() + expire_s.size();
  for (const std::uint64_t d : batch_digests) out.digest = mix(out.digest, d);
  for (const std::uint64_t n : segment_counts) out.digest = mix(out.digest, n);

  const auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  out.e2e("setup_s", median(setup_s), "s", setup_s.size());
  report_survey_e2e(out, series);
  report_replies(out, reply_ms, window_s);

  report_build(out, builds);
  report_survey_layers(out, series, serial_tc_s);
  report_extras(out, ex);
  out.layer("overlay.ingest_edges_per_s", static_cast<double>(accepted) / sum(ingest_s),
            "edges/s", ingest_s.size());
  out.layer("overlay.accepted_frac",
            static_cast<double>(accepted) / static_cast<double>(std::max<std::uint64_t>(submitted, 1)),
            "ratio", ingest_s.size());
  out.layer("overlay.rebuilt_vertices",
            static_cast<double>(rebuilt) / static_cast<double>(std::max<std::size_t>(ingest_s.size(), 1)),
            "count", ingest_s.size());
  out.layer("overlay.expire_edges_per_s", static_cast<double>(expired) / sum(expire_s),
            "edges/s", expire_s.size());
  out.layer("overlay.compact_edges_per_s", static_cast<double>(compacted_edges) / sum(compact_s),
            "edges/s", compact_s.size());
  return out;
}

}  // namespace tripoll::pipeline
