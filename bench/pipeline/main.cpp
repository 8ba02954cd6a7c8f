// bench_pipeline -- the pipeline benchmark: one workload per process.
//
//   bench_pipeline --workload W [--seed N] [--seconds S] [--trace 0|1|DIR]
//                  [--json OUT]
//
// Prints every metric as `workload metric value unit n=samples`, then, as
// the last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics untraced, the per-layer metrics with --trace 1 (or
// --trace DIR, which also picks where the Chrome trace goes; the default is
// .bench_build/trace/).  Exits 1 when any check failed, 2 on bad usage.
#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <string_view>

#include "common.hpp"
#include "trace.hpp"

namespace pl = tripoll::pipeline;

namespace {

/// A hang anywhere in a workload becomes a failure after this long.
constexpr unsigned kWatchdogSeconds = 120;

struct workload_entry {
  const char* name;
  pl::outcome (*run)(const pl::options&);
};

constexpr std::array<workload_entry, 4> kWorkloads = {{
    {"social-count", pl::run_social_count},
    {"web-fqdn", pl::run_web_fqdn},
    {"temporal-stream", pl::run_temporal_stream},
    {"service-mixed", pl::run_service_mixed},
}};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_pipeline: %s\nusage: bench_pipeline --workload W [--seed N] "
               "[--seconds S] [--trace 0|1|DIR] [--json OUT]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

pl::options parse(int argc, char** argv) {
  pl::options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value after an option");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed needs an integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds needs a positive number");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") == 0) {
        opt.trace = false;
      } else {
        opt.trace = true;
        if (std::strcmp(value, "1") != 0) opt.trace_dir = value;
      }
    } else if (arg == "--json") {
      opt.json_path = value;
    } else {
      usage("unknown option");
    }
  }
  return opt;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();  // a refused reply
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

const pl::metric* find(const std::vector<pl::metric>& ms, std::string_view name) {
  for (const auto& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const pl::options opt = parse(argc, argv);
  const workload_entry* entry = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) entry = &w;
  }
  if (entry == nullptr) usage("unknown or missing --workload");

  pl::arm_watchdog(kWatchdogSeconds);
  if (opt.trace) pl::trace::enable();

  pl::outcome out;
  try {
    out = entry->run(opt);
  } catch (const std::exception& e) {
    out.fail(std::string("workload aborted: ") + e.what());
  }
  out.e2e("peak_rss_mb", pl::peak_rss_mb(), "MB");

  if (opt.trace) {
    try {
      const auto s = pl::trace::finish(opt.trace_dir + "/" + opt.workload + ".trace.json");
      out.layer("trace.coverage", s.coverage, "ratio");
      out.layer("trace.record_cost_frac", s.record_cost_frac, "ratio");
      out.layer("trace.spans", static_cast<double>(s.spans), "count");
      for (const auto& [layer, share] : s.self_share) {
        out.layer(layer + ".self_share", share, "ratio");
      }
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }

  // Human-readable lines: end-to-end always, per-layer when traced.
  std::string metrics_json;
  std::string missing;
  const auto emit = [&](const std::vector<pl::metric_spec>& catalog,
                        const std::vector<pl::metric>& have, bool zero_if_missing,
                        bool to_json) {
    for (const auto& spec : catalog) {
      const pl::metric* m = find(have, spec.name);
      if (m == nullptr && !zero_if_missing) {
        missing += std::string(missing.empty() ? "" : ", ") + spec.name;
        continue;
      }
      const double value = m != nullptr ? m->value : 0.0;
      std::printf("%s %s %s %s n=%zu\n", opt.workload.c_str(), spec.name,
                  json_number(value).c_str(), spec.unit, m != nullptr ? m->samples : 0);
      if (to_json) {
        if (!metrics_json.empty()) metrics_json += ", ";
        metrics_json += std::string("\"") + spec.name + "\": {\"value\": " +
                        json_number(value) + ", \"unit\": \"" + spec.unit + "\"}";
      }
    }
  };
  emit(pl::end_to_end_catalog(), out.end_to_end, false, !opt.trace);
  if (opt.trace) emit(pl::per_layer_catalog(), out.per_layer, true, true);
  if (!missing.empty()) out.fail("not measured: " + missing);
  std::printf("%s result_digest 0x%016llx\n", opt.workload.c_str(),
              static_cast<unsigned long long>(out.digest));

  const std::string result =
      std::string("{\"correct\": ") + (out.failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(out.attempted, 1)) +
      ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {" + metrics_json + "}}";
  if (!opt.json_path.empty()) {
    if (std::FILE* f = std::fopen(opt.json_path.c_str(), "w")) {
      std::fprintf(f, "%s\n", result.c_str());
      std::fclose(f);
    } else {
      out.fail("cannot write " + opt.json_path);
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}
