#include "common.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <stdexcept>

namespace tripoll::pipeline {

void outcome::fail(const std::string& why) {
  ++failed;
  std::fprintf(stderr, "FATAL: %s\n", why.c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string work_path(const std::string& name) {
  const std::filesystem::path dir = ".bench_build/work";
  std::filesystem::create_directories(dir);
  return (dir / (std::to_string(::getpid()) + "-" + name)).string();
}

work_files::~work_files() {
  for (const auto& p : paths_) {
    std::error_code ec;
    std::filesystem::remove(p, ec);
  }
}

std::uint64_t f64_word(double v) noexcept { return std::bit_cast<std::uint64_t>(v); }
double word_f64(std::uint64_t w) noexcept { return std::bit_cast<double>(w); }

namespace {

/// The running reference child, killed by the watchdog.
volatile std::sig_atomic_t g_child_pid = 0;

/// A reference computation gets less than the workload's watchdog, so a hung
/// child is reported as a child failure first.
constexpr unsigned kChildTimeoutSeconds = 100;

extern "C" void on_watchdog(int) {
  static const char msg[] = "FATAL: watchdog: workload did not finish in time\n";
  (void)!::write(STDERR_FILENO, msg, sizeof(msg) - 1);
  if (g_child_pid > 0) ::kill(static_cast<pid_t>(g_child_pid), SIGKILL);
  ::_exit(3);
}

void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) throw std::runtime_error("reference child: pipe write failed");
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

void arm_watchdog(unsigned seconds) {
  struct sigaction sa{};
  sa.sa_handler = on_watchdog;
  ::sigaction(SIGALRM, &sa, nullptr);
  ::alarm(seconds);
}

words run_in_child(const std::function<words()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("reference child: pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("reference child: fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::alarm(kChildTimeoutSeconds);
    int status = 0;
    try {
      const words w = fn();
      const std::uint64_t n = w.size();
      write_all(fds[1], &n, sizeof(n));
      write_all(fds[1], w.data(), w.size() * sizeof(std::uint64_t));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "FATAL: reference child: %s\n", e.what());
      status = 1;
    }
    std::fflush(nullptr);
    ::_exit(status);
  }
  g_child_pid = pid;
  ::close(fds[1]);
  std::vector<char> bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fds[0], buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    bytes.insert(bytes.end(), buf, buf + r);
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  g_child_pid = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bytes.size() < sizeof(std::uint64_t)) {
    throw std::runtime_error("reference child failed");
  }
  std::uint64_t n = 0;
  std::memcpy(&n, bytes.data(), sizeof(n));
  if (bytes.size() != (n + 1) * sizeof(std::uint64_t)) {
    throw std::runtime_error("reference child: truncated report");
  }
  words w(n);
  std::memcpy(w.data(), bytes.data() + sizeof(n), n * sizeof(std::uint64_t));
  return w;
}

void survey_series::add(const survey_result& r, double wall_seconds, double finalize_seconds) {
  seconds.push_back(wall_seconds);
  volume.push_back(static_cast<double>(r.total.volume_bytes));
  dry_run.push_back(r.dry_run.seconds);
  push.push_back(r.push.seconds);
  pull.push_back(r.pull.seconds);
  finalize.push_back(finalize_seconds);
  last = r;
}

void report_survey_e2e(outcome& out, const survey_series& s) {
  out.e2e("survey_s", median(s.seconds), "s", s.seconds.size());
  out.e2e("survey_bytes", mean(s.volume), "B", s.volume.size());
}

void report_survey_layers(outcome& out, const survey_series& s, double serial_tc_s) {
  const std::size_t n = s.seconds.size();
  const survey_result& r = s.last;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  out.layer("survey.dry_run_s", median(s.dry_run), "s", n);
  out.layer("survey.push_s", median(s.push), "s", n);
  out.layer("survey.pull_s", median(s.pull), "s", n);
  out.layer("survey.wedge_candidates", count(r.wedge_candidates), "count");
  out.layer("survey.pulls_granted", count(r.pulls_granted), "count");
  out.layer("survey.proposals_filtered", count(r.proposals_filtered), "count");
  out.layer("survey.closure_ratio", ratio(r.triangles_found, r.wedge_candidates), "ratio");
  out.layer("survey.speedup_vs_serial", serial_tc_s / median(s.seconds), "ratio", n);
  out.layer("intersect.bitmap_batches", count(r.bitmap_batches), "count");
  out.layer("intersect.list_batches", count(r.list_batches), "count");
  out.layer("intersect.bitmap_share",
            ratio(r.bitmap_batches, r.bitmap_batches + r.list_batches), "ratio");
  out.layer("comm.dry_run_bytes", count(r.dry_run.volume_bytes), "B");
  out.layer("comm.push_bytes", count(r.push.volume_bytes), "B");
  out.layer("comm.pull_bytes", count(r.pull.volume_bytes), "B");
  out.layer("comm.messages", count(r.total.messages), "count");
  out.layer("comm.finalize_s", median(s.finalize), "s", n);
  out.layer("baselines.serial_tc_s", serial_tc_s, "s");
}

void report_replies(outcome& out, const std::vector<double>& reply_ms, double window_s) {
  const std::size_t n = reply_ms.size();
  out.e2e("plans_per_s", window_s > 0 ? static_cast<double>(n) / window_s : 0.0, "1/s", n);
  out.e2e("reply_p50_ms", median(reply_ms), "ms", n);
  out.e2e("reply_p90_ms", percentile(reply_ms, 90.0), "ms", n);
}

const std::vector<metric_spec>& end_to_end_catalog() {
  static const std::vector<metric_spec> catalog = {
      {"setup_s", "s"},      {"survey_s", "s"},     {"survey_bytes", "B"},
      {"plans_per_s", "1/s"}, {"reply_p50_ms", "ms"}, {"reply_p90_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return catalog;
}

const std::vector<metric_spec>& per_layer_catalog() {
  static const std::vector<metric_spec> catalog = {
      {"trace.coverage", "ratio"},
      {"trace.record_cost_frac", "ratio"},
      {"trace.spans", "count"},
      {"io.self_share", "ratio"},
      {"build.self_share", "ratio"},
      {"freeze.self_share", "ratio"},
      {"snapshot.self_share", "ratio"},
      {"survey.self_share", "ratio"},
      {"comm.self_share", "ratio"},
      {"overlay.self_share", "ratio"},
      {"service.self_share", "ratio"},
      {"workload.self_share", "ratio"},
      {"io.mb_per_s", "MB/s"},
      {"io.bytes", "B"},
      {"build.s", "s"},
      {"build.bytes", "B"},
      {"build.messages", "count"},
      {"freeze.s", "s"},
      {"freeze.bytes_per_edge", "B"},
      {"freeze.hub_vertices", "count"},
      {"snapshot.save_mb_per_s", "MB/s"},
      {"snapshot.load_mb_per_s", "MB/s"},
      {"snapshot.file_bytes", "B"},
      {"survey.dry_run_s", "s"},
      {"survey.push_s", "s"},
      {"survey.pull_s", "s"},
      {"survey.wedge_candidates", "count"},
      {"survey.pulls_granted", "count"},
      {"survey.proposals_filtered", "count"},
      {"survey.closure_ratio", "ratio"},
      {"survey.thread_scaling", "ratio"},
      {"survey.speedup_vs_serial", "ratio"},
      {"intersect.bitmap_batches", "count"},
      {"intersect.list_batches", "count"},
      {"intersect.bitmap_share", "ratio"},
      {"comm.dry_run_bytes", "B"},
      {"comm.push_bytes", "B"},
      {"comm.pull_bytes", "B"},
      {"comm.messages", "count"},
      {"comm.finalize_s", "s"},
      {"overlay.ingest_edges_per_s", "edges/s"},
      {"overlay.accepted_frac", "ratio"},
      {"overlay.rebuilt_vertices", "count"},
      {"overlay.expire_edges_per_s", "edges/s"},
      {"overlay.compact_edges_per_s", "edges/s"},
      {"service.traversals", "count"},
      {"service.batches", "count"},
      {"service.plans_per_batch", "ratio"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.rejected", "count"},
      {"service.hit_latency_ratio", "ratio"},
      {"service.miss_overhead", "ratio"},
      {"service.standalone_ms", "ms"},
      {"baselines.serial_tc_s", "s"},
  };
  return catalog;
}

}  // namespace tripoll::pipeline
