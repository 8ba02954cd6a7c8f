// io.hpp -- distributed edge-list file ingestion and result export.
//
// The paper's pipeline starts from on-disk edge lists (SNAP/WebGraph-style
// "u v" or "u v timestamp" text).  Ingestion is distributed the same way
// real TriPoll/HavoqGT readers work: every rank claims a byte range of the
// file, aligns it to line boundaries, parses its share and feeds the edges
// to the (collective) graph builder, which shuffles them to their owners.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "comm/communicator.hpp"
#include "graph/types.hpp"

namespace tripoll::graph {

/// Read-only mapping of a whole file (snapshot loading).  The mapping stays
/// valid while any shared_ptr copy lives, so frozen arenas can view it
/// directly; falls back to an owned read when mmap is unavailable.
class mapped_file {
 public:
  /// Map `path` read-only; throws std::runtime_error when it cannot be
  /// opened or mapped/read.
  [[nodiscard]] static std::shared_ptr<const mapped_file> map(const std::string& path);

  ~mapped_file();
  mapped_file(const mapped_file&) = delete;
  mapped_file& operator=(const mapped_file&) = delete;

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Whether the content is a true mmap (vs the owned-read fallback).
  [[nodiscard]] bool is_mapped() const noexcept { return mapped_; }

 private:
  mapped_file() = default;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  void* owned_ = nullptr;  // fallback buffer (malloc'd) when !mapped_
};

/// Per-rank file name of a frozen-graph snapshot (shared by the CLI, the
/// snapshot layer and the tests so they always agree).
[[nodiscard]] std::string snapshot_rank_path(const std::string& prefix, int rank);

/// One parsed line of an edge-list file.
struct parsed_edge {
  vertex_id u = 0;
  vertex_id v = 0;
  std::optional<std::uint64_t> weight;  ///< third column when present
};

/// Statistics of one rank's share of an ingestion.
struct ingest_stats {
  std::uint64_t lines = 0;          ///< lines scanned (excluding comments)
  std::uint64_t edges = 0;          ///< well-formed edges parsed
  std::uint64_t malformed = 0;      ///< lines that failed to parse
  std::uint64_t bytes = 0;          ///< bytes this rank consumed
};

/// Parse one line ("u v" or "u v w"; '#' and '%' start comments).
/// Returns std::nullopt for comment/blank lines; throws nothing.
[[nodiscard]] std::optional<parsed_edge> parse_edge_line(std::string_view line,
                                                         bool* malformed);

/// Knobs for this rank's share of an ingestion.
struct ingest_options {
  /// Parser threads for this rank's byte slice.  0 = TRIPOLL_THREADS from
  /// the environment, defaulting to 1 (core::resolve_threads).  The slice
  /// splits into per-thread sub-ranges aligned to line boundaries (the same
  /// ownership rule ranks use, applied recursively), each thread parses its
  /// share into a private shard, and shards drain into the sink in thread
  /// index order -- the edge SEQUENCE is bit-identical to a serial read at
  /// every thread count.
  int threads = 0;
};

/// Collective: read `path`, with rank r of P claiming the r-th byte slice
/// (aligned forward to newline boundaries so each line is parsed exactly
/// once), invoking `sink(parsed_edge)` per edge.  Returns this rank's
/// stats.  Throws std::runtime_error when the file cannot be opened.
ingest_stats read_edge_list(const comm::communicator& c, const std::string& path,
                            const std::function<void(const parsed_edge&)>& sink);

/// As above, with explicit ingestion options (parallel parse).
/// The three-argument overload is equivalent to `{.threads = 1}`.
ingest_stats read_edge_list(const comm::communicator& c, const std::string& path,
                            const std::function<void(const parsed_edge&)>& sink,
                            const ingest_options& opts);

/// Rank-0 helper: write an edge list (one "u v [w]" line per call).
class edge_list_writer {
 public:
  explicit edge_list_writer(const std::string& path);
  ~edge_list_writer();

  edge_list_writer(const edge_list_writer&) = delete;
  edge_list_writer& operator=(const edge_list_writer&) = delete;

  void write(vertex_id u, vertex_id v);
  void write(vertex_id u, vertex_id v, std::uint64_t weight);

 private:
  void* file_;  // FILE*, kept opaque to avoid <cstdio> in the interface
};

}  // namespace tripoll::graph
