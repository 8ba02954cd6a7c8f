// snapshot.hpp -- binary snapshots of frozen CSR graphs.
//
// `save_snapshot` writes each rank's frozen arenas to its own file
// (`<prefix>.r<k>.tpsnap`); `load_snapshot` maps them back as arena views.
// A reload therefore skips the entire construction pipeline: no edge
// shuffle, no P4 metadata exchange, and -- because ordering ranks are
// columns of the snapshot -- no degeneracy re-peel.  The paper's
// real-dataset workloads (Reddit, common-crawl) amortize one build across
// arbitrarily many survey sessions this way.
//
// File layout (version 4; little-endian, 64-byte-aligned sections):
//
//   [128-byte header]  magic, version, nranks, rank, ordering, n, m,
//                      vmeta/emeta element sizes, file size,
//                      FNV-1a of the section table, content id
//   [section table]    10 x { codec, stored_bytes, checksum } u64 triples
//   [aligned sections] each section's STORED bytes, in this order:
//     vertex columns   vid[n] degree[n] order_rank[n] offset[n+1] vmeta[n]
//     edge columns     target[m] target_rank[m] target_out_degree[m]
//                      emeta[m] target_vmeta[m]
//
// Only version 4 is readable: files of any other version are refused by
// name ("unsupported snapshot version").
//
// `snapshot_codec` picks the column codecs.  `raw` (the default) stores
// every section verbatim.  `compressed` delta-encodes the u64 columns
// (ZigZag, the adjacency is sorted by the <+ order key so deltas take
// either sign) then varint-packs them; the monotonic offset column stores
// first-value-plus-gaps; the target column restarts its delta chain at
// every CSR vertex slice (short in-slice deltas, no cross-vertex noise);
// metadata arenas stay raw.  Raw-tagged sections are served zero-copy from
// the mapping.  Whatever the codec, every section carries an FNV-1a
// checksum verified on load, and the offset column is range-checked before
// anything indexes through it.
//
// Empty metadata (graph::none, dropped projections) occupies zero bytes on
// disk, mirroring its zero-byte arena.  Only bitwise-serializable metadata
// may be snapshotted (a pointer/string column would be meaningless on
// reload); the requirement is enforced at compile time.
//
// Snapshots are partition-shaped: the loader must run with the same rank
// count that saved them (the vertex->owner hash depends on nranks), which
// the header checks.  The bytes are backend-independent -- files written
// under the inproc backend load bit-identically under the socket backend
// and vice versa.
#pragma once

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/communicator.hpp"
#include "core/parallel.hpp"
#include "graph/frozen.hpp"
#include "graph/io.hpp"
#include "graph/ordering.hpp"
#include "serial/buffer.hpp"
#include "serial/hash.hpp"
#include "serial/serialize.hpp"

namespace tripoll::graph {

/// Which column codecs save_snapshot writes: raw (every section verbatim,
/// mmap-viewable) or compressed (per-section varint/delta codecs).
enum class snapshot_codec {
  raw,
  compressed,
};

namespace snapshot_detail {

inline constexpr std::uint64_t kMagic = 0x54504C4C534E4150ull;  // "TPLLSNAP"
inline constexpr std::uint64_t kVersion = 4;
inline constexpr std::size_t kAlign = 64;
inline constexpr std::size_t kHeaderBytes = 128;  // 16 u64 words
inline constexpr std::size_t kNumSections = 10;
inline constexpr std::size_t kTableBytes = kNumSections * 3 * 8;  // section table

/// Per-section column codec tag (the wire values of the section table).
enum class column_codec : std::uint64_t {
  raw = 0,                  ///< verbatim bytes, mmap-viewable
  varint_delta = 1,         ///< zigzag(v[i] - v[i-1]) varints, v[-1] = 0
  varint_gap = 2,           ///< v[i] - v[i-1] varints (monotonic columns)
  varint_vertex_delta = 3,  ///< varint_delta restarted at each CSR slice
};

template <typename T>
inline constexpr bool snapshot_compatible =
    std::is_empty_v<T> || serial::detail::bitwise<T>;

template <typename T>
[[nodiscard]] constexpr std::uint64_t element_size() noexcept {
  return std::is_empty_v<T> ? 0 : sizeof(T);
}

[[nodiscard]] constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + kAlign - 1) / kAlign * kAlign;
}

struct header {
  std::uint64_t nranks = 0;
  std::uint64_t rank = 0;
  std::uint64_t ordering = 0;
  std::uint64_t n = 0;  ///< local vertices
  std::uint64_t m = 0;  ///< local directed (out-)edges
  std::uint64_t vmeta_size = 0;
  std::uint64_t emeta_size = 0;
  std::uint64_t file_size = 0;
  std::uint64_t table_checksum = 0;  ///< FNV-1a of the section table
  std::uint64_t content_id = 0;  ///< frozen_dodgr::snapshot_id() (0: absent)

  void encode(std::byte out[kHeaderBytes]) const noexcept {
    std::memset(out, 0, kHeaderBytes);
    const std::uint64_t words[12] = {kMagic,     kVersion,  nranks,         rank,
                                     ordering,   n,         m,              vmeta_size,
                                     emeta_size, file_size, table_checksum, content_id};
    for (std::size_t i = 0; i < 12; ++i) serial::store_u64_le(out + 8 * i, words[i]);
  }

  [[nodiscard]] static header decode(const std::byte in[kHeaderBytes],
                                     const std::string& path) {
    if (serial::load_u64_le(in) != kMagic) {
      throw std::runtime_error("load_snapshot: '" + path + "' is not a TriPoll snapshot");
    }
    const std::uint64_t version = serial::load_u64_le(in + 8);
    if (version != kVersion) {
      throw std::runtime_error("load_snapshot: '" + path +
                               "' has unsupported snapshot version " +
                               std::to_string(version));
    }
    header h;
    h.nranks = serial::load_u64_le(in + 16);
    h.rank = serial::load_u64_le(in + 24);
    h.ordering = serial::load_u64_le(in + 32);
    h.n = serial::load_u64_le(in + 40);
    h.m = serial::load_u64_le(in + 48);
    h.vmeta_size = serial::load_u64_le(in + 56);
    h.emeta_size = serial::load_u64_le(in + 64);
    h.file_size = serial::load_u64_le(in + 72);
    h.table_checksum = serial::load_u64_le(in + 80);
    h.content_id = serial::load_u64_le(in + 88);
    return h;
  }
};

/// Logical (decoded) section sizes, in file order.
[[nodiscard]] inline std::array<std::uint64_t, kNumSections> section_bytes(
    const header& h) {
  return {h.n * 8, h.n * 8, h.n * 8, (h.n + 1) * 8,      h.n * h.vmeta_size,
          h.m * 8, h.m * 8, h.m * 8, h.m * h.emeta_size, h.m * h.vmeta_size};
}

// --- column codecs ----------------------------------------------------------

inline void append_varint(std::vector<std::byte>& out, std::uint64_t v) {
  std::byte tmp[serial::kMaxVarintBytes];
  out.insert(out.end(), tmp, tmp + serial::varint_encode(tmp, v));
}

/// zigzag(v[i] - v[i-1]) varint stream; v[-1] = 0.
[[nodiscard]] inline std::vector<std::byte> encode_delta(const std::uint64_t* v,
                                                         std::size_t n) {
  std::vector<std::byte> out;
  out.reserve(n * 2 + 16);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    append_varint(out, serial::zigzag_encode(static_cast<std::int64_t>(v[i] - prev)));
    prev = v[i];
  }
  return out;
}

/// Gap varint stream for monotonically non-decreasing columns (offsets).
[[nodiscard]] inline std::vector<std::byte> encode_gap(const std::uint64_t* v,
                                                       std::size_t n) {
  std::vector<std::byte> out;
  out.reserve(n + 16);
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    append_varint(out, v[i] - prev);
    prev = v[i];
  }
  return out;
}

/// Per-vertex delta chains over the CSR target column: the zigzag delta
/// restarts (against 0) at every slice boundary, so one vertex's sorted
/// neighbourhood compresses on its own locality.
[[nodiscard]] inline std::vector<std::byte> encode_vertex_delta(
    const std::uint64_t* v, const std::uint64_t* offset, std::size_t n) {
  std::vector<std::byte> out;
  const std::size_t m = n > 0 ? static_cast<std::size_t>(offset[n]) : 0;
  out.reserve(m * 2 + 16);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t prev = 0;
    for (std::uint64_t k = offset[i]; k < offset[i + 1]; ++k) {
      append_varint(out, serial::zigzag_encode(static_cast<std::int64_t>(v[k] - prev)));
      prev = v[k];
    }
  }
  return out;
}

[[noreturn]] inline void throw_corrupt(const std::string& path) {
  throw std::runtime_error("load_snapshot: '" + path + "' is truncated or corrupt");
}

/// Validate an offset column end to end: front 0, back == total, and
/// non-decreasing throughout (which, with back == total, bounds every
/// interior value by total).  The decoded values are untrusted input that
/// downstream code uses as slice bounds -- for writes during the
/// vertex-delta decode and for reads in the survey -- so a front/back spot
/// check is not enough: a crafted file can tag the section
/// raw (arbitrary interior values) or wrap the gap sum past 2^64.
[[nodiscard]] inline bool valid_offsets(const std::uint64_t* v, std::size_t n,
                                        std::uint64_t total) noexcept {
  if (n == 0 || v[0] != 0 || v[n - 1] != total) return false;
  for (std::size_t i = 1; i < n; ++i) {
    if (v[i] < v[i - 1]) return false;
  }
  return true;
}

inline void decode_delta(const std::byte* p, const std::byte* end, std::uint64_t* out,
                         std::size_t n, const std::string& path) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += static_cast<std::uint64_t>(serial::zigzag_decode(serial::varint_decode(p, end)));
    out[i] = prev;
  }
  if (p != end) throw_corrupt(path);  // trailing garbage after the last value
}

inline void decode_gap(const std::byte* p, const std::byte* end, std::uint64_t* out,
                       std::size_t n, const std::string& path) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prev += serial::varint_decode(p, end);
    out[i] = prev;
  }
  if (p != end) throw_corrupt(path);
}

inline void decode_vertex_delta(const std::byte* p, const std::byte* end,
                                std::uint64_t* out, const std::uint64_t* offset,
                                std::size_t n, const std::string& path) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t prev = 0;
    for (std::uint64_t k = offset[i]; k < offset[i + 1]; ++k) {
      prev += static_cast<std::uint64_t>(
          serial::zigzag_decode(serial::varint_decode(p, end)));
      out[k] = prev;
    }
  }
  if (p != end) throw_corrupt(path);
}

/// One section staged for a write: either a view of the arena bytes
/// (raw) or an owned encoded stream.
struct staged_section {
  column_codec codec = column_codec::raw;
  const std::byte* raw_data = nullptr;
  std::uint64_t raw_bytes = 0;
  std::vector<std::byte> enc;

  [[nodiscard]] const std::byte* data() const noexcept {
    return codec == column_codec::raw ? raw_data : enc.data();
  }
  [[nodiscard]] std::uint64_t stored_bytes() const noexcept {
    return codec == column_codec::raw ? raw_bytes : enc.size();
  }
};

class file_writer {
 public:
  explicit file_writer(const std::string& path)
      : path_(path), f_(std::fopen(path.c_str(), "wb")) {
    if (f_ == nullptr) {
      throw std::runtime_error("save_snapshot: cannot open '" + path +
                               "': " + std::strerror(errno));
    }
  }
  ~file_writer() {
    if (f_ != nullptr) std::fclose(f_);
  }
  file_writer(const file_writer&) = delete;
  file_writer& operator=(const file_writer&) = delete;

  void write(const void* data, std::size_t n) {
    if (n == 0) return;
    if (std::fwrite(data, 1, n, f_) != n) {
      throw std::runtime_error("save_snapshot: short write to '" + path_ + "'");
    }
    offset_ += n;
  }

  /// Zero-pad to the next section boundary.
  void pad_to_alignment() {
    static constexpr char zeros[kAlign] = {};
    const std::size_t target = align_up(offset_);
    write(zeros, target - offset_);
  }

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }

  void close() {
    if (std::fclose(f_) != 0) {
      f_ = nullptr;
      throw std::runtime_error("save_snapshot: close failed for '" + path_ + "'");
    }
    f_ = nullptr;
  }

 private:
  std::string path_;
  std::FILE* f_;
  std::size_t offset_ = 0;
};

}  // namespace snapshot_detail

/// On-disk layout of one snapshot section (introspection for tests and the
/// snapshot-IO bench): where the stored bytes sit, how many there are, and
/// which column codec produced them.
struct snapshot_section_info {
  std::uint64_t offset = 0;        ///< first stored byte within the file
  std::uint64_t stored_bytes = 0;  ///< bytes on disk (== logical for raw)
  std::uint64_t codec = 0;         ///< column codec tag
};

/// Read the section layout of one rank's snapshot file.  Validates only as
/// much as the layout needs; load_snapshot remains the full integrity check.
[[nodiscard]] inline std::vector<snapshot_section_info> snapshot_sections(
    const std::string& path) {
  namespace sd = snapshot_detail;
  const auto file = mapped_file::map(path);
  if (file->size() < sd::kHeaderBytes + sd::kTableBytes) {
    throw std::runtime_error("snapshot_sections: '" + path + "' is truncated");
  }
  (void)sd::header::decode(file->data(), path);
  std::vector<snapshot_section_info> out(sd::kNumSections);
  std::uint64_t running = sd::kHeaderBytes + sd::kTableBytes;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::byte* row = file->data() + sd::kHeaderBytes + i * 24;
    out[i].codec = serial::load_u64_le(row);
    out[i].stored_bytes = serial::load_u64_le(row + 8);
    running = sd::align_up(running);
    out[i].offset = running;
    running += out[i].stored_bytes;
  }
  return out;
}

/// Collective: write every rank's frozen arenas under `prefix` (one file per
/// rank, `snapshot_rank_path(prefix, r)`).  Returns this rank's file size.
/// The trailing barrier guarantees all files exist once any rank returns.
/// `codec` picks the column codecs: raw (every section verbatim, served
/// zero-copy on reload) or compressed (per-section varint/delta streams --
/// the structural columns shrink severalfold; metadata stays raw).
template <typename VMeta, typename EMeta>
std::uint64_t save_snapshot(frozen_dodgr<VMeta, EMeta>& g, const std::string& prefix,
                            snapshot_codec codec = snapshot_codec::raw) {
  namespace sd = snapshot_detail;
  static_assert(sd::snapshot_compatible<VMeta> && sd::snapshot_compatible<EMeta>,
                "snapshots require bitwise-serializable (or empty) metadata; "
                "project strings/containers away at freeze() time first");
  auto& c = g.comm();
  const auto& ar = g.arenas();

  sd::header h;
  h.nranks = static_cast<std::uint64_t>(c.size());
  h.rank = static_cast<std::uint64_t>(c.rank());
  h.ordering = static_cast<std::uint64_t>(g.ordering());
  h.n = ar.vid.size();
  h.m = ar.target.size();
  h.vmeta_size = sd::element_size<VMeta>();
  h.emeta_size = sd::element_size<EMeta>();
  // The content id rides in header word 11 so reloads (and operators
  // inspecting files) get it without re-hashing the arenas.
  h.content_id = g.snapshot_id();

  const auto raw_of = [](const auto& column) {
    sd::staged_section s;
    s.codec = sd::column_codec::raw;
    s.raw_data = reinterpret_cast<const std::byte*>(column.data());
    s.raw_bytes = column.bytes();
    return s;
  };
  std::array<sd::staged_section, sd::kNumSections> secs = {
      raw_of(ar.vid),          raw_of(ar.degree),      raw_of(ar.order_rank),
      raw_of(ar.offset),       raw_of(ar.vmeta),       raw_of(ar.target),
      raw_of(ar.target_rank),  raw_of(ar.target_out_degree),
      raw_of(ar.emeta),        raw_of(ar.target_vmeta)};

  // Compressed saves re-encode the structural columns independently; fan
  // the encoders out over the freeze thread pool sizing (the encode wall is
  // one pass per column, so the slowest column -- targets -- bounds the
  // stage).  Raw saves have no jobs.
  using cc = sd::column_codec;
  const std::uint64_t* off64 = ar.offset.data();
  struct encode_job {
    std::size_t idx;
    cc codec;
    std::function<std::vector<std::byte>()> enc;
  };
  std::vector<encode_job> jobs;
  if (codec == snapshot_codec::compressed) {
    jobs = {
        {5, cc::varint_vertex_delta,
         [&] { return sd::encode_vertex_delta(ar.target.data(), off64, h.n); }},
        {6, cc::varint_delta, [&] { return sd::encode_delta(ar.target_rank.data(), h.m); }},
        {7, cc::varint_delta,
         [&] { return sd::encode_delta(ar.target_out_degree.data(), h.m); }},
        {0, cc::varint_delta, [&] { return sd::encode_delta(ar.vid.data(), h.n); }},
        {1, cc::varint_delta, [&] { return sd::encode_delta(ar.degree.data(), h.n); }},
        {2, cc::varint_delta, [&] { return sd::encode_delta(ar.order_rank.data(), h.n); }},
        {3, cc::varint_gap, [&] { return sd::encode_gap(off64, h.n + 1); }},
    };
  }
  std::atomic<std::size_t> enc_cursor{0};
  core::fork_join(core::resolve_threads(0), [&](int) {
    for (;;) {
      const std::size_t j = enc_cursor.fetch_add(1, std::memory_order_relaxed);
      if (j >= jobs.size()) break;
      secs[jobs[j].idx].codec = jobs[j].codec;
      secs[jobs[j].idx].enc = jobs[j].enc();
    }
  });

  // Section table + file size.
  std::byte table[sd::kTableBytes];
  std::uint64_t running = sd::kHeaderBytes + sd::kTableBytes;
  for (std::size_t i = 0; i < sd::kNumSections; ++i) {
    std::byte* row = table + i * 24;
    serial::store_u64_le(row, static_cast<std::uint64_t>(secs[i].codec));
    serial::store_u64_le(row + 8, secs[i].stored_bytes());
    serial::store_u64_le(row + 16, serial::fnv1a(secs[i].data(), secs[i].stored_bytes()));
    running = sd::align_up(running) + secs[i].stored_bytes();
  }
  h.file_size = running;
  h.table_checksum = serial::fnv1a(table, sd::kTableBytes);

  sd::file_writer out(snapshot_rank_path(prefix, c.rank()));
  std::byte hdr[sd::kHeaderBytes];
  h.encode(hdr);
  out.write(hdr, sizeof(hdr));
  out.write(table, sizeof(table));
  for (const auto& s : secs) {
    out.pad_to_alignment();
    out.write(s.data(), s.stored_bytes());
  }
  if (out.offset() != h.file_size) {
    throw std::runtime_error("save_snapshot: internal size mismatch (wrote " +
                             std::to_string(out.offset()) + ", expected " +
                             std::to_string(h.file_size) + ")");
  }
  out.close();
  c.barrier();
  return h.file_size;
}

/// Collective: reload a frozen graph saved by `save_snapshot`.  Raw
/// sections are zero-copy views into the mapping, pinned for the graph's
/// lifetime; compressed sections decode section-by-section (in parallel,
/// TRIPOLL_THREADS) into owned arenas.  Every section's checksum verifies
/// first, whatever its codec.  The rank count must match the saving run's.
/// Throws std::runtime_error on any mismatch, on sections that overrun the
/// file, on checksum failures and on an out-of-range offset column.
template <typename VMeta, typename EMeta>
[[nodiscard]] frozen_dodgr<VMeta, EMeta> load_snapshot(comm::communicator& c,
                                                       const std::string& prefix) {
  namespace sd = snapshot_detail;
  static_assert(sd::snapshot_compatible<VMeta> && sd::snapshot_compatible<EMeta>,
                "snapshots require bitwise-serializable (or empty) metadata");
  const std::string path = snapshot_rank_path(prefix, c.rank());
  const auto file = mapped_file::map(path);
  if (file->size() < sd::kHeaderBytes + sd::kTableBytes) {
    throw std::runtime_error("load_snapshot: '" + path + "' is truncated");
  }
  const auto h = sd::header::decode(file->data(), path);
  if (h.nranks != static_cast<std::uint64_t>(c.size())) {
    throw std::runtime_error(
        "load_snapshot: '" + path + "' was saved by a " + std::to_string(h.nranks) +
        "-rank job but this run has " + std::to_string(c.size()) +
        " ranks (the vertex partition is rank-count-specific)");
  }
  if (h.rank != static_cast<std::uint64_t>(c.rank())) {
    throw std::runtime_error("load_snapshot: '" + path + "' belongs to rank " +
                             std::to_string(h.rank));
  }
  if (h.vmeta_size != sd::element_size<VMeta>() ||
      h.emeta_size != sd::element_size<EMeta>()) {
    throw std::runtime_error(
        "load_snapshot: '" + path + "' metadata layout (" +
        std::to_string(h.vmeta_size) + "/" + std::to_string(h.emeta_size) +
        " bytes) does not match the requested graph type (" +
        std::to_string(sd::element_size<VMeta>()) + "/" +
        std::to_string(sd::element_size<EMeta>()) + " bytes)");
  }
  // Element counts are untrusted until proven in-bounds: every vertex and
  // edge occupies at least one stored byte in some section (8 for raw), so
  // counts beyond the file size mean a corrupt or hostile header -- and,
  // unchecked, they would overflow the size arithmetic below into section
  // views pointing past the mapping.
  if (h.n > file->size() || h.m > file->size()) {
    sd::throw_corrupt(path);
  }
  if (h.file_size != file->size()) sd::throw_corrupt(path);

  const std::byte* table = file->data() + sd::kHeaderBytes;
  if (serial::fnv1a(table, sd::kTableBytes) != h.table_checksum) sd::throw_corrupt(path);

  struct section_ref {
    sd::column_codec codec = sd::column_codec::raw;
    std::uint64_t stored = 0;
    std::uint64_t checksum = 0;
    const std::byte* data = nullptr;
  };
  std::array<section_ref, sd::kNumSections> secs;
  std::uint64_t running = sd::kHeaderBytes + sd::kTableBytes;
  for (std::size_t i = 0; i < sd::kNumSections; ++i) {
    const std::byte* row = table + i * 24;
    const std::uint64_t codec_tag = serial::load_u64_le(row);
    if (codec_tag > static_cast<std::uint64_t>(sd::column_codec::varint_vertex_delta)) {
      throw std::runtime_error("load_snapshot: '" + path +
                               "' uses an unknown section codec " +
                               std::to_string(codec_tag));
    }
    secs[i].codec = static_cast<sd::column_codec>(codec_tag);
    secs[i].stored = serial::load_u64_le(row + 8);
    secs[i].checksum = serial::load_u64_le(row + 16);
    running = sd::align_up(running);
    // Checked walk: a stored length may never run past the mapping.
    if (running > file->size() || secs[i].stored > file->size() - running) {
      sd::throw_corrupt(path);
    }
    secs[i].data = file->data() + running;
    running += secs[i].stored;
  }
  if (running != h.file_size) sd::throw_corrupt(path);

  const auto logical = sd::section_bytes(h);
  const std::array<std::uint64_t, sd::kNumSections> counts = {h.n, h.n, h.n, h.n + 1, h.n,
                                                              h.m, h.m, h.m, h.m,     h.m};
  for (std::size_t i = 0; i < sd::kNumSections; ++i) {
    // Sections consumed as zero-copy views (the metadata arenas) are only
    // ever written raw; any other tag would make the view below cover
    // logical[i] bytes of a shorter stored region.
    const bool view_only = i == 4 || i == 8 || i == 9;
    if (view_only && secs[i].codec != sd::column_codec::raw) sd::throw_corrupt(path);
    if (secs[i].codec == sd::column_codec::raw) {
      // Raw sections are served straight from the mapping; their stored
      // size must equal the logical column size.
      if (secs[i].stored != logical[i]) sd::throw_corrupt(path);
    } else {
      // A varint stream holds at least one byte per value: a smaller
      // section can only be truncation, caught before allocating counts.
      if (counts[i] > secs[i].stored) sd::throw_corrupt(path);
    }
  }

  // Decode the offset column first (the target column's slice boundaries),
  // then the remaining sections in parallel: checksum verify + decode per
  // section, raw sections verify only and stay zero-copy.
  const auto verify = [&](std::size_t i) {
    if (serial::fnv1a(secs[i].data, secs[i].stored) != secs[i].checksum) {
      sd::throw_corrupt(path);
    }
  };
  const auto decode_u64 = [&](std::size_t i, std::vector<std::uint64_t>& out) {
    out.resize(counts[i]);
    const std::byte* p = secs[i].data;
    const std::byte* end = p + secs[i].stored;
    switch (secs[i].codec) {
      case sd::column_codec::varint_delta:
        sd::decode_delta(p, end, out.data(), out.size(), path);
        break;
      case sd::column_codec::varint_gap:
        sd::decode_gap(p, end, out.data(), out.size(), path);
        break;
      default:
        sd::throw_corrupt(path);  // vertex_delta is valid only for section 5
    }
  };

  // The offset column as the loader reads it: the mapping when raw, the
  // decoded vector otherwise.
  verify(3);
  std::vector<std::uint64_t> offset_col;
  if (secs[3].codec != sd::column_codec::raw) decode_u64(3, offset_col);
  const std::uint64_t* offsets = secs[3].codec == sd::column_codec::raw
                                     ? reinterpret_cast<const std::uint64_t*>(secs[3].data)
                                     : offset_col.data();
  // The CSR invariants double as decode bounds for the vertex-delta codec:
  // offset[i]..offset[i+1] become write indices into an h.m-sized buffer,
  // so every value -- not just front/back -- must be proven in range.
  if (!sd::valid_offsets(offsets, static_cast<std::size_t>(h.n) + 1, h.m)) {
    sd::throw_corrupt(path);
  }

  std::vector<std::uint64_t> vid_col, degree_col, rank_col, target_col, trank_col,
      toutdeg_col;
  struct decode_task {
    std::size_t sec;
    std::vector<std::uint64_t>* out;  ///< nullptr: verify checksum only
  };
  std::vector<decode_task> tasks;
  const auto plan = [&](std::size_t sec, std::vector<std::uint64_t>* out) {
    tasks.push_back({sec, secs[sec].codec == sd::column_codec::raw ? nullptr : out});
  };
  plan(0, &vid_col);
  plan(1, &degree_col);
  plan(2, &rank_col);
  plan(5, &target_col);
  plan(6, &trank_col);
  plan(7, &toutdeg_col);
  tasks.push_back({4, nullptr});
  tasks.push_back({8, nullptr});
  tasks.push_back({9, nullptr});

  const int threads = core::resolve_threads(0);
  std::atomic<std::size_t> cursor{0};
  core::fork_join(threads, [&](int) {
    for (;;) {
      const std::size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) break;
      const auto& task = tasks[t];
      verify(task.sec);
      if (task.out == nullptr) continue;
      if (task.sec == 5 &&
          secs[5].codec == sd::column_codec::varint_vertex_delta) {
        task.out->resize(h.m);
        sd::decode_vertex_delta(secs[5].data, secs[5].data + secs[5].stored,
                                task.out->data(), offsets,
                                static_cast<std::size_t>(h.n), path);
      } else {
        decode_u64(task.sec, *task.out);
      }
    }
  });

  const std::shared_ptr<const void> keep = file;
  frozen_arenas<VMeta, EMeta> ar;
  const auto u64_arena = [&](std::size_t sec, std::vector<std::uint64_t>&& col) {
    if (secs[sec].codec == sd::column_codec::raw) {
      return arena<std::uint64_t>(reinterpret_cast<const std::uint64_t*>(secs[sec].data),
                                  counts[sec], keep);
    }
    return arena<std::uint64_t>(std::move(col));
  };
  ar.vid = u64_arena(0, std::move(vid_col));
  ar.degree = u64_arena(1, std::move(degree_col));
  ar.order_rank = u64_arena(2, std::move(rank_col));
  ar.offset = u64_arena(3, std::move(offset_col));
  if constexpr (std::is_empty_v<VMeta>) {
    ar.vmeta = meta_column<VMeta>(h.n);
    ar.target_vmeta = meta_column<VMeta>(h.m);
  } else {
    ar.vmeta =
        meta_column<VMeta>(reinterpret_cast<const VMeta*>(secs[4].data), h.n, keep);
    ar.target_vmeta =
        meta_column<VMeta>(reinterpret_cast<const VMeta*>(secs[9].data), h.m, keep);
  }
  ar.target = u64_arena(5, std::move(target_col));
  ar.target_rank = u64_arena(6, std::move(trank_col));
  ar.target_out_degree = u64_arena(7, std::move(toutdeg_col));
  if constexpr (std::is_empty_v<EMeta>) {
    ar.emeta = meta_column<EMeta>(h.m);
  } else {
    ar.emeta =
        meta_column<EMeta>(reinterpret_cast<const EMeta*>(secs[8].data), h.m, keep);
  }
  frozen_dodgr<VMeta, EMeta> out(c, std::move(ar),
                                 static_cast<ordering_policy>(h.ordering));
  out.adopt_snapshot_id(h.content_id);
  return out;
}

/// Header fields of one rank's snapshot file, without loading (or even
/// walking) the sections.  What a process needs before committing to a
/// graph type: the CLI dispatches `serve` on the metadata element sizes,
/// and operators diff `content_id` across snapshot generations.
struct snapshot_peek {
  std::uint64_t version = 0;
  std::uint64_t nranks = 0;
  std::uint64_t rank = 0;
  std::uint64_t ordering = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  std::uint64_t vmeta_size = 0;
  std::uint64_t emeta_size = 0;
  std::uint64_t content_id = 0;  ///< frozen_dodgr::snapshot_id() at save time
};

[[nodiscard]] inline snapshot_peek peek_snapshot(const std::string& path) {
  namespace sd = snapshot_detail;
  const auto file = mapped_file::map(path);
  if (file->size() < sd::kHeaderBytes) {
    throw std::runtime_error("peek_snapshot: '" + path + "' is truncated");
  }
  const auto h = sd::header::decode(file->data(), path);
  return snapshot_peek{sd::kVersion, h.nranks,     h.rank,       h.ordering, h.n,
                       h.m,          h.vmeta_size, h.emeta_size, h.content_id};
}

}  // namespace tripoll::graph
