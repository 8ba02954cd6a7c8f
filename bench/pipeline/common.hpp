// common.hpp -- shared plumbing of the pipeline benchmark (bench_pipeline).
//
// One process runs one workload: it makes its inputs from --seed, sets the
// graph up several times (the median is `setup_s`), runs the workload's
// operations for --seconds, checks every result against a reference
// computed in a forked child, and reports named metrics.  Every number is
// measured from outside the library, around calls into its public
// functions; trace.hpp records the same boundaries as spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "serial/hash.hpp"

namespace tripoll::pipeline {

using clock_type = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// Topology and load of every workload: 2 inproc ranks x 2 threads per rank
/// (survey, ingest and freeze), i.e. 4 busy threads on a 4-core box.
inline constexpr int kRanks = 2;
inline constexpr int kThreads = 2;

/// How often traced runs repeat the extras of stages.hpp (the survey at 1 and
/// at kThreads threads, one standalone count unit); even, so each order of
/// the two surveys runs equally often.
inline constexpr int kExtraReps = 4;

/// Length of the measured loop: BENCHMARK.json's run_seconds, which the
/// harness passes as --seconds and calibrate.py records the baseline with.
inline constexpr double kRunSeconds = 15.0;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;
  bool trace = false;
  std::string trace_dir = ".bench_build/trace";
  std::string json_path;  ///< also write the result object here ("" = no)
};

/// One reported metric; `samples` is how many measurements it summarizes.
struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// What one workload run produced.  A workload records every metric it can
/// measure; main.cpp prints the end-to-end ones untraced and the per-layer
/// ones traced.
struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< result_digest: built from results, never traffic
  std::vector<metric> end_to_end;
  std::vector<metric> per_layer;

  void e2e(std::string name, double value, std::string unit, std::size_t samples = 1) {
    end_to_end.push_back({std::move(name), value, std::move(unit), samples});
  }
  void layer(std::string name, double value, std::string unit, std::size_t samples = 1) {
    per_layer.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Record a failed operation (wrong result, error, refused request).
  void fail(const std::string& why);
  /// fail(why) unless `ok`.
  void expect(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

// --- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);
/// Nearest-rank percentile, p in (0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// Order-sensitive digest step.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return serial::hash_combine(h, serial::splitmix64(v));
}

/// Per-workload stream seed: distinct generators never share a stream.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  return serial::splitmix64(seed * 0x9E3779B97F4A7C15ull ^ salt);
}

// --- process and files --------------------------------------------------------

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Path for a work file of this run (edge list, snapshot, socket), under
/// .bench_build/work/ in the working directory; created on demand.
[[nodiscard]] std::string work_path(const std::string& name);

/// Removes a set of paths when it goes out of scope.
class work_files {
 public:
  work_files() = default;
  ~work_files();
  work_files(const work_files&) = delete;
  work_files& operator=(const work_files&) = delete;
  void add(std::string path) { paths_.push_back(std::move(path)); }

 private:
  std::vector<std::string> paths_;
};

/// Words a reference child reports back: counts, digests and bit-cast times.
using words = std::vector<std::uint64_t>;

[[nodiscard]] std::uint64_t f64_word(double v) noexcept;
[[nodiscard]] double word_f64(std::uint64_t w) noexcept;

/// Run `fn` in a forked child and return what it reports; the parent waits.
/// Reference computations run there, so they never count towards this
/// process's peak_rss_mb or its measured time.  Must be called while the
/// process is single-threaded (no runtime running).  Throws when the child
/// fails.
[[nodiscard]] words run_in_child(const std::function<words()>& fn);

/// SIGALRM watchdog: after `seconds`, print a diagnosis, kill the reference
/// child if one runs, and exit 3, so a hang becomes a failure.
void arm_watchdog(unsigned seconds);

// --- survey bookkeeping --------------------------------------------------------

/// The surveys one workload measured: wall time around `plan.run()` on rank
/// 0 plus the engine's own counters.
struct survey_series {
  std::vector<double> seconds;  ///< wall per survey
  std::vector<double> volume;   ///< remote bytes per survey
  std::vector<double> dry_run, push, pull;
  std::vector<double> finalize;  ///< result reduction after the traversal
  survey_result last;            ///< counters of the latest survey

  void add(const survey_result& r, double wall_seconds, double finalize_seconds);
};

/// survey_s and survey_bytes.
void report_survey_e2e(outcome& out, const survey_series& s);

/// survey.*, intersect.* and comm.* per-layer metrics, plus the serial
/// baseline comparison.
void report_survey_layers(outcome& out, const survey_series& s, double serial_tc_s);

/// plans_per_s, reply_p50_ms and reply_p90_ms from per-reply latencies.
void report_replies(outcome& out, const std::vector<double>& reply_ms, double window_s);

// --- metric catalog ----------------------------------------------------------------

/// A metric name and its unit, in BENCHMARK.json order.
struct metric_spec {
  const char* name;
  const char* unit;
};

/// Every workload reports every end-to-end metric.
[[nodiscard]] const std::vector<metric_spec>& end_to_end_catalog();

/// Per-layer metrics.  Every time-valued one is measured on every workload;
/// counts, rates and ratios of a layer a workload does not exercise read 0.
[[nodiscard]] const std::vector<metric_spec>& per_layer_catalog();

// --- workloads ------------------------------------------------------------------

outcome run_social_count(const options& opt);
outcome run_web_fqdn(const options& opt);
outcome run_temporal_stream(const options& opt);
outcome run_service_mixed(const options& opt);

}  // namespace tripoll::pipeline
