// service-mixed: many small reads through the resident survey daemon.  A
// LiveJournal-like R-MAT graph with u64 edge timestamps and vertex labels
// is saved as a compressed (v3) snapshot; each set-up loads it and runs one
// count survey, and 25 more count surveys give survey_s.  The daemon, with its default admission window, batch size
// and cache, then serves 4 closed-loop clients over a Unix socket.  75% of
// requests are plans never asked before (1-3 units drawn from count,
// hot-count thresholds, closure digest, max label and time windows), 25%
// repeat one of the client's last 8 plans, so under 30% of replies are
// cache hits and the median reply measures fused traversals.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "baselines/serial_tc.hpp"
#include "comm/runtime.hpp"
#include "comm/service_client.hpp"
#include "gen/distribute.hpp"
#include "gen/presets.hpp"
#include "graph/snapshot.hpp"
#include "stages.hpp"

namespace tripoll::pipeline {

namespace {

using svc_graph = graph::frozen_dodgr<std::uint64_t, std::uint64_t>;
using service::plan_unit;
using service::unit_kind;

constexpr int kSetups = 9;
constexpr int kSurveys = 25;  ///< count surveys on the loaded graph before serving
constexpr int kClients = 4;
constexpr std::size_t kMinPlans = 40;    ///< per client; also the digest's prefix
constexpr std::size_t kMaxPlans = 4000;  ///< per client; far above what a run serves
constexpr std::size_t kRecent = 8;       ///< a repeat picks one of this many
constexpr double kRepeatShare = 0.25;
constexpr std::uint64_t kTimeRange = 1000000;  ///< edge timestamps lie in [0, kTimeRange)
constexpr std::uint64_t kThresholds = 256;
constexpr std::uint64_t kWindows = 8;

plan_unit unit(unit_kind k, std::uint64_t param = 0) {
  return plan_unit{static_cast<std::uint64_t>(k), param};
}

/// Every unit a plan may draw: count, 256 hot-count thresholds, closure
/// digest, max label and 8 disjoint time windows.
std::vector<plan_unit> unit_catalog() {
  std::vector<plan_unit> all{unit(unit_kind::count), unit(unit_kind::closure_digest),
                             unit(unit_kind::max_label)};
  for (std::uint64_t i = 0; i < kThresholds; ++i) {
    all.push_back(unit(unit_kind::hot_count, i * kTimeRange / kThresholds));
  }
  for (std::uint64_t w = 0; w < kWindows; ++w) {
    all.push_back(unit(unit_kind::window,
                       service::pack_window_param(w * kTimeRange / kWindows,
                                                  (w + 1) * kTimeRange / kWindows)));
  }
  std::sort(all.begin(), all.end());
  return all;
}

struct request {
  std::vector<plan_unit> units;  ///< canonical: sorted, unique
  bool repeat = false;
};

/// Every client's request sequence, drawn up front from the seed.  A fresh
/// plan is one no client was given before; its units pick a kind uniformly
/// and then a parameter.
std::vector<std::vector<request>> make_requests(std::uint64_t seed) {
  std::uint64_t state = derive_seed(seed, 0x5E4F);
  const auto next = [&state](std::uint64_t bound) {
    state = serial::splitmix64(state);
    return state % bound;
  };
  const auto draw_unit = [&]() {
    switch (next(5)) {
      case 0: return unit(unit_kind::count);
      case 1: return unit(unit_kind::hot_count, next(kThresholds) * kTimeRange / kThresholds);
      case 2: return unit(unit_kind::closure_digest);
      case 3: return unit(unit_kind::max_label);
      default: {
        const std::uint64_t w = next(kWindows);
        return unit(unit_kind::window,
                    service::pack_window_param(w * kTimeRange / kWindows,
                                               (w + 1) * kTimeRange / kWindows));
      }
    }
  };
  std::set<std::vector<plan_unit>> seen;
  std::vector<std::vector<request>> out(kClients);
  for (std::size_t i = 0; i < kMaxPlans; ++i) {
    for (auto& seq : out) {
      request r;
      if (i > 0 && static_cast<double>(next(1000)) < kRepeatShare * 1000) {
        const std::size_t back = 1 + next(std::min<std::size_t>(i, kRecent));
        r.units = seq[i - back].units;
        r.repeat = true;
      } else {
        do {
          r.units.clear();
          const std::uint64_t k = 1 + next(3);
          for (std::uint64_t j = 0; j < k; ++j) r.units.push_back(draw_unit());
          std::sort(r.units.begin(), r.units.end());
          r.units.erase(std::unique(r.units.begin(), r.units.end()), r.units.end());
        } while (!seen.insert(r.units).second);
      }
      seq.push_back(std::move(r));
    }
  }
  return out;
}

std::uint64_t edge_ts(std::uint64_t salt, graph::vertex_id u, graph::vertex_id v) {
  return serial::hash_combine(serial::splitmix64(std::min(u, v) ^ salt), std::max(u, v)) %
         kTimeRange;
}

std::uint64_t vertex_label(std::uint64_t salt, graph::vertex_id v) {
  return serial::splitmix64(v ^ salt) % 64;
}

/// What the reference child measured and computed.
struct prepared {
  build_cost build;
  double save_s = 0.0;
  std::uint64_t file_bytes = 0;
  double serial_tc_s = 0.0;
  std::map<plan_unit, service::unit_result> expected;
};

/// In the child: build, freeze and save the snapshot, then answer every
/// catalog unit with a standalone run_units and count triangles serially.
words prepare(const std::vector<graph::edge>& edges, std::uint64_t salt,
              const std::string& prefix) {
  const std::vector<plan_unit> catalog = unit_catalog();
  words w(9);
  comm::runtime::run(kRanks, [&](comm::communicator& c) {
    build_cost cost;
    auto g = build_and_freeze<std::uint64_t, std::uint64_t>(
        c,
        [&](auto& builder) {
          gen::for_rank_slice(c, edges.size(), [&](std::uint64_t k) {
            const auto [u, v] = edges[k];
            builder.add_edge(u, v, edge_ts(salt, u, v));
            builder.add_vertex_meta(u, vertex_label(salt, u));
            builder.add_vertex_meta(v, vertex_label(salt, v));
          });
        },
        cost);
    std::uint64_t file_bytes = 0;
    const double save_s = timed(c, "snapshot.save", [&] {
      file_bytes = graph::save_snapshot(g, prefix, graph::snapshot_codec::compressed);
    });
    file_bytes = c.all_reduce_sum(file_bytes);
    const auto results = service::run_units(g, catalog, service::kModePushPull, kThreads);
    if (c.rank0()) {
      w = {f64_word(cost.build_s), f64_word(cost.freeze_s), cost.build_bytes,
           cost.build_messages, f64_word(cost.freeze_bytes_per_edge), cost.hub_vertices,
           f64_word(save_s), file_bytes, 0};
      for (const auto& r : results) {
        w.insert(w.end(), {r.kind, r.param, r.fires, r.value});
      }
    }
  });
  const auto t0 = clock_type::now();
  const std::uint64_t triangles = baselines::serial_triangle_count(edges);
  w[8] = f64_word(seconds_since(t0));
  w.push_back(triangles);
  return w;
}

prepared unpack(const words& w) {
  prepared p;
  p.build = {word_f64(w.at(0)), word_f64(w.at(1)), w.at(2), w.at(3), word_f64(w.at(4)), w.at(5)};
  p.save_s = word_f64(w.at(6));
  p.file_bytes = w.at(7);
  p.serial_tc_s = word_f64(w.at(8));
  for (std::size_t i = 9; i + 4 < w.size(); i += 4) {
    p.expected[plan_unit{w[i], w[i + 1]}] = {w[i], w[i + 1], w[i + 2], w[i + 3]};
  }
  const auto count = p.expected.find(unit(unit_kind::count));
  if (count == p.expected.end() || count->second.fires != w.back()) {
    throw std::runtime_error("service-mixed: run_units count disagrees with the serial count");
  }
  return p;
}

/// One client's replies.
struct client_log {
  std::vector<double> fresh_ms, repeat_ms;
  std::uint64_t digest = 0;
  std::uint64_t failed = 0;
  std::string first_error;
};

}  // namespace

outcome run_service_mixed(const options& opt) {
  outcome out;
  const std::uint64_t salt = derive_seed(opt.seed, 0x5E7);
  gen::dataset_spec spec = gen::livejournal_like(0);
  spec.rmat.seed = derive_seed(opt.seed, 0x11);
  const std::vector<graph::edge> edges = [&] {
    const gen::rmat_generator rmat(spec.rmat);
    std::vector<graph::edge> e(rmat.num_edges());
    for (std::uint64_t k = 0; k < e.size(); ++k) e[k] = rmat.edge_at(k);
    return e;
  }();
  const auto requests = make_requests(opt.seed);

  work_files files;
  const std::string prefix = work_path("svc");
  for (int r = 0; r < kRanks; ++r) files.add(graph::snapshot_rank_path(prefix, r));
  const std::string sock = work_path("svc.sock");
  files.add(sock);
  const prepared prep = unpack(run_in_child([&] { return prepare(edges, salt, prefix); }));
  const std::uint64_t expected_count = prep.expected.at(unit(unit_kind::count)).fires;

  service::service_options sopts;  // the daemon's defaults: 5 ms window, batch 8, cache 64
  sopts.endpoint_spec = "unix:" + sock;
  sopts.threads = kThreads;
  sopts.install_signals = false;

  std::vector<double> setup_s, load_s;
  std::vector<std::uint64_t> counts;
  survey_series series;
  extras ex;
  std::mutex ready_mu;
  std::condition_variable ready_cv;
  bool ready = false;
  std::exception_ptr daemon_error;
  const auto set_ready = [&] {
    std::lock_guard<std::mutex> lock(ready_mu);
    ready = true;
    ready_cv.notify_all();
  };

  std::jthread daemon([&] {
    try {
      comm::runtime::run(kRanks, [&](comm::communicator& c) {
        trace::set_rank(c.rank());
        std::optional<svc_graph> g;
        for (int rep = 0; rep < kSetups; ++rep) {
          g.reset();
          c.barrier();
          const auto t0 = clock_type::now();
          trace::span window("window.setup");
          const double ls = timed(c, "snapshot.load", [&] {
            g.emplace(graph::load_snapshot<std::uint64_t, std::uint64_t>(c, prefix));
          });
          const count_run run = count_survey(c, *g);
          const double total = seconds_since(t0);
          if (c.rank0()) {
            setup_s.push_back(total);
            load_s.push_back(ls);
            counts.push_back(run.triangles);
          }
        }
        // survey_s: the loaded graph's count survey once warm; a set-up
        // measures only its first, cold one.
        {
          trace::span window("window.run");
          for (int i = 0; i < kSurveys; ++i) {
            const count_run run = count_survey(c, *g);
            if (c.rank0()) {
              series.add(run.result, run.survey_s, run.finalize_s);
              counts.push_back(run.triangles);
            }
          }
        }
        service::survey_service<svc_graph> d(*g, sopts);
        if (c.rank0()) set_ready();
        {
          trace::span s("service.serve");
          (void)d.serve();
        }
        measure_extras(c, *g, [&](int threads) { return count_survey(c, *g, threads).survey_s; },
                       ex);
      });
    } catch (...) {
      daemon_error = std::current_exception();
    }
    set_ready();
  });

  // Closed-loop clients: each sends its next request when the previous
  // reply arrives, until the time is up and it has sent kMinPlans.
  std::vector<client_log> logs(kClients);
  double window_s = 0.0;
  service::service_stats stats;
  {
    std::unique_lock<std::mutex> lock(ready_mu);
    ready_cv.wait(lock, [&] { return ready; });
  }
  if (!daemon_error) {
    const auto start = clock_type::now();
    {
      trace::span window("window.run");
      std::vector<std::jthread> clients;
      for (int id = 0; id < kClients; ++id) {
        clients.emplace_back([&, id] {
          client_log& log = logs[static_cast<std::size_t>(id)];
          try {
            comm::service_client client(sopts.endpoint_spec);
            const auto& seq = requests[static_cast<std::size_t>(id)];
            for (std::size_t i = 0; i < seq.size(); ++i) {
              if (i >= kMinPlans && seconds_since(start) >= opt.seconds) break;
              service::plan_request req;
              req.units = seq[i].units;
              const auto t0 = clock_type::now();
              double ms = std::numeric_limits<double>::infinity();
              std::string error;
              try {
                service::plan_response resp;
                {
                  trace::span s("service.submit", (std::uint64_t(id) << 32) | i);
                  resp = client.submit(req);
                }
                ms = seconds_since(t0) * 1e3;
                bool ok = resp.units.size() == req.units.size();
                for (std::size_t j = 0; ok && j < resp.units.size(); ++j) {
                  const auto& got = resp.units[j];
                  const auto& want = prep.expected.at(req.units[j]);
                  ok = got.kind == want.kind && got.param == want.param &&
                       got.fires == want.fires && got.value == want.value;
                  if (i < kMinPlans) log.digest = mix(mix(log.digest, got.fires), got.value);
                }
                if (!ok) error = "reply differs from the standalone run_units";
              } catch (const std::exception& e) {
                error = e.what();
              }
              if (!error.empty()) {
                ++log.failed;
                if (log.first_error.empty()) log.first_error = error;
                ms = std::numeric_limits<double>::infinity();
              }
              (seq[i].repeat ? log.repeat_ms : log.fresh_ms).push_back(ms);
            }
          } catch (const std::exception& e) {
            ++log.failed;
            log.first_error = e.what();
          }
        });
      }
      clients.clear();  // joins
    }
    window_s = seconds_since(start);
  }
  try {
    comm::service_client control(sopts.endpoint_spec);
    stats = control.stats();
    control.shutdown();
  } catch (const std::exception& e) {
    out.fail(std::string("service-mixed: control connection: ") + e.what());
    service::request_stop();  // stop a daemon no client can reach
  }
  daemon.join();
  if (daemon_error) std::rethrow_exception(daemon_error);

  std::vector<double> all_ms, fresh_ms, repeat_ms;
  for (std::size_t id = 0; id < logs.size(); ++id) {
    const client_log& log = logs[id];
    fresh_ms.insert(fresh_ms.end(), log.fresh_ms.begin(), log.fresh_ms.end());
    repeat_ms.insert(repeat_ms.end(), log.repeat_ms.begin(), log.repeat_ms.end());
    out.digest = mix(out.digest, log.digest);
    out.failed += log.failed;
    if (log.failed > 0) {
      std::fprintf(stderr, "FATAL: service-mixed: client %zu: %llu failed requests, first: %s\n",
                   id, static_cast<unsigned long long>(log.failed), log.first_error.c_str());
    }
  }
  all_ms.insert(all_ms.end(), fresh_ms.begin(), fresh_ms.end());
  all_ms.insert(all_ms.end(), repeat_ms.begin(), repeat_ms.end());
  out.attempted = kSetups + kSurveys + all_ms.size();
  for (const std::uint64_t n : counts) {
    out.expect(n == expected_count, "service-mixed: a count survey found " +
                                        std::to_string(n) + " triangles, expected " +
                                        std::to_string(expected_count));
  }

  out.e2e("setup_s", median(setup_s), "s", setup_s.size());
  report_survey_e2e(out, series);
  report_replies(out, all_ms, window_s);

  const double file_mb = static_cast<double>(prep.file_bytes) / 1e6;
  report_build(out, {prep.build});
  out.layer("snapshot.save_mb_per_s", file_mb / prep.save_s, "MB/s");
  out.layer("snapshot.load_mb_per_s", file_mb / median(load_s), "MB/s", load_s.size());
  out.layer("snapshot.file_bytes", static_cast<double>(prep.file_bytes), "B");
  report_survey_layers(out, series, prep.serial_tc_s);
  report_extras(out, ex);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  out.layer("service.traversals", static_cast<double>(stats.traversals), "count");
  out.layer("service.batches", static_cast<double>(stats.batches), "count");
  out.layer("service.plans_per_batch",
            ratio(static_cast<double>(stats.cache_misses), static_cast<double>(stats.batches)),
            "ratio");
  out.layer("service.cache_hit_ratio",
            ratio(static_cast<double>(stats.cache_hits), static_cast<double>(stats.plans_served)),
            "ratio");
  out.layer("service.rejected", static_cast<double>(stats.rejected), "count");
  out.layer("service.hit_latency_ratio", ratio(median(repeat_ms), median(fresh_ms)), "ratio",
            repeat_ms.size());
  if (!ex.standalone_ms.empty()) {
    out.layer("service.miss_overhead", ratio(median(fresh_ms), median(ex.standalone_ms)),
              "ratio", fresh_ms.size());
  }
  return out;
}

}  // namespace tripoll::pipeline
