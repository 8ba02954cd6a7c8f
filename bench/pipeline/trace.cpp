#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "common.hpp"

namespace tripoll::pipeline::trace {

namespace {

struct record {
  const char* name;
  std::int64_t begin_ns;
  std::int64_t end_ns;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t request;
  int rank;
  int thread;
};

struct thread_log {
  int thread = 0;
  int rank = -1;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> open;
  std::vector<record> done;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;  // guards g_logs (registration and finish only)
std::vector<std::unique_ptr<thread_log>> g_logs;
thread_local thread_log* t_log = nullptr;
const clock_type::time_point g_epoch = clock_type::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock_type::now() - g_epoch)
      .count();
}

thread_log& local_log() {
  if (t_log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_logs.push_back(std::make_unique<thread_log>());
    t_log = g_logs.back().get();
    t_log->thread = static_cast<int>(g_logs.size()) - 1;
  }
  return *t_log;
}

std::string_view layer_of(const char* name) {
  const std::string_view n(name);
  return n.substr(0, n.find('.'));
}

bool is_window(const record& r) { return layer_of(r.name) == "window"; }

using interval = std::pair<std::int64_t, std::int64_t>;

/// Sorted, disjoint union of `v`.
std::vector<interval> merged(std::vector<interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<interval> out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

std::int64_t measure(const std::vector<interval>& disjoint) {
  std::int64_t total = 0;
  for (const auto& [b, e] : disjoint) total += e - b;
  return total;
}

/// Measure of the intersection of two sorted disjoint interval lists.
std::int64_t overlap(const std::vector<interval>& a, const std::vector<interval>& b) {
  std::int64_t total = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::int64_t lo = std::max(a[i].first, b[j].first);
    const std::int64_t hi = std::min(a[i].second, b[j].second);
    if (hi > lo) total += hi - lo;
    (a[i].second < b[j].second) ? ++i : ++j;
  }
  return total;
}

/// Cost of recording one span, measured on this thread and then discarded.
double span_cost_ns() {
  constexpr int kCalibration = 20000;
  thread_log& log = local_log();
  const std::size_t before = log.done.size();
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kCalibration; ++i) {
    span s("trace.calibrate");
  }
  const double cost = static_cast<double>(now_ns() - t0) / kCalibration;
  log.done.resize(before);
  return cost;
}

void write_chrome_json(const std::string& path, const std::vector<record>& all) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("trace: cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  // Rank threads show as one process per rank; the main thread and the
  // service clients share one more.
  for (int pid = 0; pid <= kRanks; ++pid) {
    std::fprintf(f, "%s{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": %d, "
                 "\"args\": {\"name\": \"%s%d\"}}",
                 first ? "" : ",\n", pid, pid < kRanks ? "rank " : "main ", pid);
    first = false;
  }
  for (const record& r : all) {
    const int pid = r.rank >= 0 ? r.rank : kRanks;
    const std::string_view layer = layer_of(r.name);
    std::fprintf(f,
                 ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%.*s\", \"pid\": %d, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}",
                 r.name, static_cast<int>(layer.size()), layer.data(), pid, r.thread,
                 static_cast<double>(r.begin_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.begin_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request));
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("trace: cannot write " + path);
}

}  // namespace

void enable() { g_enabled.store(true, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_rank(int rank) {
  if (enabled()) local_log().rank = rank;
}

span::span(const char* name, std::uint64_t request) {
  if (!enabled()) return;
  thread_log& log = local_log();
  log_ = &log;
  name_ = name;
  request_ = request;
  id_ = (static_cast<std::uint64_t>(log.thread + 1) << 40) | ++log.next_id;
  parent_ = log.open.empty() ? 0 : log.open.back();
  log.open.push_back(id_);
  begin_ns_ = now_ns();
}

span::~span() {
  if (log_ == nullptr) return;
  auto& log = *static_cast<thread_log*>(log_);
  const std::int64_t end = now_ns();
  log.open.pop_back();
  log.done.push_back(
      record{name_, begin_ns_, end, id_, parent_, request_, log.rank, log.thread});
}

summary finish(const std::string& chrome_json_path) {
  summary out;
  if (!enabled()) return out;
  const double cost_ns = span_cost_ns();

  std::vector<record> all;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    for (const auto& log : g_logs) all.insert(all.end(), log->done.begin(), log->done.end());
  }
  std::sort(all.begin(), all.end(),
            [](const record& a, const record& b) { return a.begin_ns < b.begin_ns; });
  out.spans = all.size();

  // Children nest on their parent's thread and never overlap each other, so
  // a span's self time is its duration minus its children's durations.
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const record& r : all) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.begin_ns;
  }
  std::vector<interval> windows, layers;
  for (const record& r : all) {
    (is_window(r) ? windows : layers).emplace_back(r.begin_ns, r.end_ns);
  }
  const auto w = merged(std::move(windows));
  const std::int64_t window_ns = measure(w);
  const auto in_window = [&w](std::int64_t t) {
    const auto it = std::upper_bound(w.begin(), w.end(), interval{t, std::numeric_limits<std::int64_t>::max()});
    return it != w.begin() && t < std::prev(it)->second;
  };

  // Self-time shares count only the measured windows, not the traced-only
  // extras that run after them.
  std::map<std::string, std::int64_t> self_ns;
  std::int64_t total_self = 0;
  for (const record& r : all) {
    if (is_window(r) || !in_window(r.begin_ns)) continue;
    const auto it = child_ns.find(r.id);
    const std::int64_t self =
        std::max<std::int64_t>(0, r.end_ns - r.begin_ns - (it == child_ns.end() ? 0 : it->second));
    self_ns[std::string(layer_of(r.name))] += self;
    total_self += self;
  }
  if (window_ns > 0) {
    out.coverage = static_cast<double>(overlap(merged(std::move(layers)), w)) /
                   static_cast<double>(window_ns);
    out.record_cost_frac = cost_ns * static_cast<double>(out.spans) / static_cast<double>(window_ns);
  }
  for (const auto& [layer, ns] : self_ns) {
    out.self_share.emplace_back(
        layer, total_self > 0 ? static_cast<double>(ns) / static_cast<double>(total_self) : 0.0);
  }
  if (!chrome_json_path.empty()) write_chrome_json(chrome_json_path, all);
  return out;
}

}  // namespace tripoll::pipeline::trace
