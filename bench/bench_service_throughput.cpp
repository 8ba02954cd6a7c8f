// bench_service_throughput -- resident survey service: fused plans/sec,
// admission-window fusion ratio and cache-hit latency (PR 9 acceptance
// numbers).
//
// For each measured preset this bench freezes a metadata-rich graph
// in-memory, runs the daemon on the inproc runtime inside a thread, and
// drives it over real Unix-domain sockets with 8 client threads:
//   * FUSED:    window 10 ms, max_batch 8, cache off -- concurrent misses
//               share one traversal per admission window,
//   * UNFUSED:  window 0, max_batch 1, cache off -- every plan pays its own
//               traversal (the fusion-off baseline),
//   * CACHE:    sequential client; cold submissions (distinct plans, each a
//               traversal) vs repeat submissions (served from the LRU).
// Every daemon reply is checked against a standalone run_units() reference;
// a mismatch is FATAL.
//
// `--json <path>` writes a `pr9_service_cases` object consumed by
// the gate table in tools/check_bench_regression.py (`--gates`), whose
// rows assert
//   * identical unit results between daemon replies and the standalone
//     traversal (bit-identity is unconditional),
//   * fused/unfused plans-per-second ratio >= 1.5 at 8 clients,
//   * cold/hit latency ratio >= 10 (cache hits skip the traversal
//     entirely),
//   * fused traversal count strictly below the plan count (the admission
//     window actually batched), unfused exactly one per plan.
// `--quick` shrinks the graph and round counts for CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "comm/runtime.hpp"
#include "comm/service_client.hpp"
#include "gen/presets.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "serial/hash.hpp"
#include "service/survey_service.hpp"

namespace comm = tripoll::comm;
namespace gen = tripoll::gen;
namespace graph = tripoll::graph;
namespace svc = tripoll::service;

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::uint64_t edge_ts(graph::vertex_id u, graph::vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 1000000;
}

std::uint64_t vertex_label(graph::vertex_id v) {
  return tripoll::serial::splitmix64(v ^ 0x5EED) % 64;
}

graph::frozen_dodgr<std::uint64_t, std::uint64_t> build_frozen(
    comm::communicator& c, const std::string& which, int delta) {
  graph::dodgr<std::uint64_t, std::uint64_t> g(c);
  graph::graph_builder<std::uint64_t, std::uint64_t> builder(c);
  gen::for_preset_edges(c, which, delta, [&](graph::vertex_id u, graph::vertex_id v) {
    builder.add_edge(u, v, edge_ts(u, v));
    if (u == v) return;  // a dropped self-loop must not create its vertex
    builder.add_vertex_meta(u, vertex_label(u));
    builder.add_vertex_meta(v, vertex_label(v));
  });
  builder.build_into(g);
  return graph::freeze(g);
}

svc::plan_unit unit(svc::unit_kind kind, std::uint64_t param = 0) {
  return svc::plan_unit{static_cast<std::uint64_t>(kind), param};
}

/// The 8-client working set: one distinct plan per client slot.
std::vector<std::vector<svc::plan_unit>> client_plans() {
  std::vector<std::vector<svc::plan_unit>> plans;
  plans.push_back({unit(svc::unit_kind::count)});
  for (std::uint64_t t = 1; t <= 5; ++t) {
    plans.push_back({unit(svc::unit_kind::hot_count, t * 150000)});
  }
  plans.push_back({unit(svc::unit_kind::closure_digest)});
  plans.push_back({unit(svc::unit_kind::max_label), unit(svc::unit_kind::count)});
  return plans;
}

std::string fresh_socket_spec() {
  static std::atomic<int> counter{0};
  return "unix:/tmp/tripoll-bench-svc-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

struct workload_result {
  double wall_seconds = 0.0;
  std::uint64_t plans = 0;
  svc::service_stats stats;
  std::uint64_t mismatches = 0;
};

/// Serve `which` with `opts` and run `body(spec)` as the client side; the
/// daemon's final stats are captured through a control connection.
template <typename Body>
workload_result with_daemon(const std::string& which, int delta,
                            svc::service_options opts, Body&& body) {
  const std::string spec = fresh_socket_spec();
  opts.endpoint_spec = spec;
  opts.install_signals = false;
  workload_result out;
  std::thread daemon([&] {
    comm::runtime::run(1, [&](comm::communicator& c) {
      auto g = build_frozen(c, which, delta);
      svc::survey_service d(g, opts);
      (void)d.serve();
    });
  });
  body(spec, out);
  {
    comm::service_client control(spec);
    out.stats = control.stats();
    control.shutdown();
  }
  daemon.join();
  return out;
}

/// Expected per-unit results, computed once standalone (no daemon).
std::map<std::pair<std::uint64_t, std::uint64_t>, svc::unit_result> reference(
    const std::string& which, int delta,
    const std::vector<std::vector<svc::plan_unit>>& plans,
    std::uint64_t* triangles) {
  std::vector<svc::plan_unit> all;
  for (const auto& p : plans) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  std::map<std::pair<std::uint64_t, std::uint64_t>, svc::unit_result> expected;
  comm::runtime::run(1, [&](comm::communicator& c) {
    auto g = build_frozen(c, which, delta);
    std::uint64_t tri = 0;
    const auto res = svc::run_units(g, all, svc::kModePushPull, 0, &tri);
    for (const auto& r : res) expected[{r.kind, r.param}] = r;
    *triangles = tri;
  });
  return expected;
}

/// 8 client threads x `rounds` submissions each; every reply is verified
/// against `expected`.
workload_result run_concurrent(
    const std::string& which, int delta, svc::service_options opts, int rounds,
    const std::vector<std::vector<svc::plan_unit>>& plans,
    const std::map<std::pair<std::uint64_t, std::uint64_t>, svc::unit_result>&
        expected) {
  return with_daemon(which, delta, opts, [&](const std::string& spec,
                                             workload_result& out) {
    constexpr int kClients = 8;
    std::atomic<std::uint64_t> mismatches{0};
    const auto t0 = clock_type::now();
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        comm::service_client client(spec);
        for (int r = 0; r < rounds; ++r) {
          svc::plan_request req;
          req.units = plans[static_cast<std::size_t>(t) % plans.size()];
          const auto resp = client.submit(req);
          svc::plan_request canon = req;
          svc::canonicalize(canon);
          for (std::size_t i = 0; i < resp.units.size(); ++i) {
            const auto it = expected.find({canon.units[i].kind, canon.units[i].param});
            if (it == expected.end() || resp.units[i].fires != it->second.fires ||
                resp.units[i].value != it->second.value) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : clients) th.join();
    out.wall_seconds = seconds_since(t0);
    out.plans = static_cast<std::uint64_t>(kClients) * rounds;
    out.mismatches = mismatches.load();
  });
}

struct service_case {
  std::uint64_t plans = 0;
  double fused_plans_per_sec = 0.0;
  double unfused_plans_per_sec = 0.0;
  std::uint64_t fused_traversals = 0;
  std::uint64_t unfused_traversals = 0;
  double cold_seconds = 0.0;  ///< median cold (traversing) submit latency
  double hit_seconds = 0.0;   ///< median cache-hit submit latency
  std::uint64_t triangles = 0;
  std::uint64_t mismatches = 0;

  [[nodiscard]] double fusion_ratio() const {
    return unfused_plans_per_sec > 0 ? fused_plans_per_sec / unfused_plans_per_sec
                                     : 0.0;
  }
  [[nodiscard]] double cache_speedup() const {
    return hit_seconds > 0 ? cold_seconds / hit_seconds : 0.0;
  }
};

service_case run_case(const std::string& which, int delta, int rounds, int reps) {
  service_case out;
  const auto plans = client_plans();
  const auto expected = reference(which, delta, plans, &out.triangles);

  // FUSED: the admission window holds concurrent misses for one traversal.
  svc::service_options fused;
  fused.window_ms = 10;
  fused.max_batch = 8;
  fused.cache_capacity = 0;
  const auto f = run_concurrent(which, delta, fused, rounds, plans, expected);
  out.plans = f.plans;
  out.fused_plans_per_sec = f.plans / f.wall_seconds;
  out.fused_traversals = f.stats.traversals;
  out.mismatches += f.mismatches;

  // UNFUSED: window 0 / batch 1 -- every plan pays a full traversal.
  svc::service_options unfused;
  unfused.window_ms = 0;
  unfused.max_batch = 1;
  unfused.cache_capacity = 0;
  const auto u = run_concurrent(which, delta, unfused, rounds, plans, expected);
  out.unfused_plans_per_sec = u.plans / u.wall_seconds;
  out.unfused_traversals = u.stats.traversals;
  out.mismatches += u.mismatches;

  // CACHE: sequential client; distinct plans are cold, repeats are hits.
  svc::service_options cached;
  cached.window_ms = 0;
  cached.max_batch = 1;
  cached.cache_capacity = 64;
  std::pair<double, double> cold_hit_medians{0.0, 0.0};
  const auto c = with_daemon(which, delta, cached, [&](const std::string& spec,
                                                       workload_result& w) {
    comm::service_client client(spec);
    std::vector<double> cold, hit;
    for (int r = 0; r < reps; ++r) {
      svc::plan_request req;  // distinct per rep: never cached yet
      req.units = {unit(svc::unit_kind::hot_count, 1000 + static_cast<std::uint64_t>(r))};
      auto t0 = clock_type::now();
      const auto cold_body = client.submit_raw(req);
      cold.push_back(seconds_since(t0));
      t0 = clock_type::now();
      const auto hit_body = client.submit_raw(req);  // same canonical plan
      hit.push_back(seconds_since(t0));
      if (hit_body != cold_body) w.mismatches += 1;
    }
    w.plans = static_cast<std::uint64_t>(reps) * 2;
    cold_hit_medians = {median(cold), median(hit)};
  });
  out.cold_seconds = cold_hit_medians.first;
  out.hit_seconds = cold_hit_medians.second;
  out.mismatches += c.mismatches;
  return out;
}

void print_case(const std::string& name, const service_case& sc) {
  std::printf("%-10s %5llu plans  fused %8.0f/s (%llu traversals)  "
              "unfused %8.0f/s (%llu)  fusion %5.2fx\n",
              name.c_str(), (unsigned long long)sc.plans, sc.fused_plans_per_sec,
              (unsigned long long)sc.fused_traversals, sc.unfused_plans_per_sec,
              (unsigned long long)sc.unfused_traversals, sc.fusion_ratio());
  std::printf("%-10s cold %8.5fs  cache hit %8.6fs  speedup %6.1fx  "
              "triangles %llu\n",
              "", sc.cold_seconds, sc.hit_seconds, sc.cache_speedup(),
              (unsigned long long)sc.triangles);
}

void write_json(const char* path, const std::map<std::string, service_case>& cases,
                int delta) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"pr9_service_cases\": {\n");
  std::size_t i = 0;
  for (const auto& [name, sc] : cases) {
    std::fprintf(
        f,
        "    \"%s\": {\"plans\": %llu, "
        "\"fused_plans_per_sec\": %.2f, \"unfused_plans_per_sec\": %.2f, "
        "\"fused_traversals\": %llu, \"unfused_traversals\": %llu, "
        "\"cold_seconds\": %.6f, \"hit_seconds\": %.6f, "
        "\"triangles\": %llu, \"mismatches\": %llu}%s\n",
        name.c_str(), (unsigned long long)sc.plans, sc.fused_plans_per_sec,
        sc.unfused_plans_per_sec, (unsigned long long)sc.fused_traversals,
        (unsigned long long)sc.unfused_traversals, sc.cold_seconds, sc.hit_seconds,
        (unsigned long long)sc.triangles, (unsigned long long)sc.mismatches,
        ++i == cases.size() ? "" : ",");
  }
  std::fprintf(f, "  },\n  \"params\": {\"ranks\": 1, \"delta\": %d, "
               "\"clients\": 8, \"hw_threads\": %u}\n}\n",
               delta, std::thread::hardware_concurrency());
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = tripoll::bench::quick_mode(argc, argv);
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '-') {
        std::fprintf(stderr, "--json needs an output path\n");
        return 2;
      }
      json_path = argv[++i];
    }
  }

  const int delta = quick ? -1 : tripoll::bench::scale_delta_from_env(1);
  const int rounds = quick ? 4 : 16;
  const int reps = quick ? 7 : 15;

  tripoll::bench::print_header(
      "Resident survey service: fused plans/sec, fusion ratio, cache latency",
      "PR 9");
  std::map<std::string, service_case> cases;
  std::vector<std::string> which = {"rmat"};
  if (!quick) which.push_back("temporal");
  for (const auto& name : which) {
    cases[name] = run_case(name, delta, rounds, reps);
    print_case(name, cases[name]);
    if (cases[name].mismatches != 0) {
      std::fprintf(stderr,
                   "FATAL: %llu daemon replies diverged from the standalone "
                   "traversal on %s\n",
                   (unsigned long long)cases[name].mismatches, name.c_str());
      return 1;
    }
  }
  if (json_path != nullptr) write_json(json_path, cases, delta);
  return 0;
}
