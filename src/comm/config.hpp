// config.hpp -- tunables for the simulated distributed runtime.
#pragma once

#include <cstddef>

namespace tripoll::comm {

/// Runtime configuration.
struct config {
  /// Per-destination send-buffer size in bytes.  Every RPC sender (the
  /// communicator and each survey worker, comm/send_buffers.hpp) appends
  /// RPCs to a per-destination buffer and hands it to the transport once it
  /// reaches this many bytes, and at every flush or barrier -- the paper's
  /// message buffering (Sec. 4.1.1).  Larger buffers amortize per-message
  /// overhead but delay delivery; `bench_ablation_buffering` sweeps this.
  std::size_t buffer_capacity = 64 * 1024;

  /// Watchdog: a rank waiting in a barrier longer than this without global
  /// progress aborts the run with a diagnostic instead of hanging forever.
  /// The usual cause is a mismatched collective (some rank skipped a
  /// barrier/all_reduce/gather_all that others entered).  0 disables.
  double barrier_timeout_seconds = 300.0;
};

}  // namespace tripoll::comm
