// trace.hpp -- spans recorded by the benchmark around each call into a layer.
//
// A span is (name, rank, thread, begin, end, parent id, request id).  Names
// read "layer.what"; the layer is the module the timed call belongs to (io,
// build, freeze, snapshot, survey, comm, overlay, service) or `workload` for
// the benchmark's own checks and glue.  Two names are special: "window.setup"
// and "window.run" mark the measured windows (set-up repetitions and the
// timed loop) that coverage is computed against.
//
// Spans go into a per-thread vector owned by a process-wide registry: the
// hot path takes no lock (a thread registers once, on its first span), and
// nothing is written until finish(), after the measurement.  Recording is off
// unless enable() was called; a disabled span costs one branch.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tripoll::pipeline::trace {

void enable();
[[nodiscard]] bool enabled() noexcept;

/// Tag the calling thread's spans with a rank (rank threads call this).
void set_rank(int rank);

/// Records [construction, destruction) under `name`, a string literal.  The
/// innermost open span of the same thread is its parent; `request` links the
/// spans of one service request across threads.
class span {
 public:
  explicit span(const char* name, std::uint64_t request = 0);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  void* log_ = nullptr;  // the thread's log; null when recording is off
  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::int64_t begin_ns_ = 0;
};

struct summary {
  double coverage = 0.0;          ///< layer-span time / measured window time
  double record_cost_frac = 0.0;  ///< estimated span-recording cost / window time
  std::uint64_t spans = 0;
  /// Per layer: self time (duration minus child spans) over all layer spans'
  /// self time, so the shares sum to 1.
  std::vector<std::pair<std::string, double>> self_share;
};

/// Analyse every recorded span and, when `chrome_json_path` is not empty,
/// write them as one Chrome trace-event JSON file (chrome://tracing, Perfetto).
/// Call once, after every recording thread has finished.
[[nodiscard]] summary finish(const std::string& chrome_json_path);

}  // namespace tripoll::pipeline::trace
