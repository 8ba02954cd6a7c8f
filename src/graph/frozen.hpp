// frozen.hpp -- frozen CSR structure-of-arrays storage for the DODGr.
//
// One rank's share of the graph is a bundle of column arenas:
//
//   vertex columns (local vertices, sorted by the <+ order key):
//     vid[], degree[], order_rank[], offset[n+1], vmeta[]
//   edge columns (concatenated Adjm+ lists, CSR):
//     target[], target_rank[], target_out_degree[], emeta[], target_vmeta[]
//
// behind `frozen_dodgr<VMeta, EMeta>`, which exposes the slot-addressed read
// API the survey engine traverses (core::slot_addressed_graph: dense CSR
// slots resolving to record views with random-access adjacency spans and
// vertex ids).  Sorting the vertex walk by <+ rank gives the
// degeneracy-ordered CSR traversal of Pashanasangi & Seshadhri.
//
// frozen_dodgr is the one graph type from build to survey:
// graph_builder::build_into fills it with the build-time metadata, and the
// built graph is surveyable as it stands (`graph::dodgr` is an alias).
//
// Projection push-down: `freeze(g, vproj, eproj)` -- or `freeze(plan)` for
// a survey plan's projections -- applies the metadata projections ONCE and
// stores only the projected columns, so every fused survey over the same
// projection reads pre-projected arenas instead of projecting per message.
// A projection to `graph::none` (or any empty type) stores a zero-byte
// column: a counting survey's frozen graph spends 24 bytes per directed
// edge regardless of how rich the build-time metadata was.  freeze() is
// only that projection: the structural columns, unchanged metadata columns
// and the id->slot index are shared with `g`, not rebuilt.
//
// Every arena is a (pointer, size, keepalive) view.  The keepalive owns a
// vector (built, projected or decoded columns) or pins an mmap'ed snapshot
// (graph/snapshot.hpp); copying an arena shares it, so a frozen graph
// outlives the graph it was frozen from, and reloading a frozen graph from
// disk touches no edge shuffle and no degeneracy peel.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/key_hash.hpp"
#include "core/parallel.hpp"  // chunked fork-join for the parallel freeze fill
#include "graph/ordering.hpp"
#include "graph/types.hpp"
#include "serial/hash.hpp"

namespace tripoll::graph {

/// Collective census of a built graph (the Table 1 columns).
struct graph_census {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_directed_edges = 0;  ///< 2x undirected count (paper convention)
  std::uint64_t max_degree = 0;          ///< d_max
  std::uint64_t max_out_degree = 0;      ///< d_max^+
  std::uint64_t wedge_checks = 0;        ///< |W+| = sum_v C(d+(v), 2)
};

/// Freeze-time knobs.
struct freeze_options {
  /// Worker threads for the rank-local column fill (0 = TRIPOLL_THREADS
  /// from the environment, defaulting to 1).  The arenas are SoA and every
  /// cell is written exactly once from its vertex's chunk, so the frozen
  /// bytes are identical at every thread count; only the wall time changes.
  int threads = 0;
};

/// One contiguous frozen column: a view whose storage (an owned vector or
/// a mapped snapshot) is pinned by `keepalive`.  Copies share the storage.
template <typename T>
class arena {
 public:
  arena() = default;
  explicit arena(std::vector<T> v) {
    auto owned = std::make_shared<const std::vector<T>>(std::move(v));
    data_ = owned->data();
    n_ = owned->size();
    keepalive_ = std::move(owned);
  }
  arena(const T* p, std::size_t n, std::shared_ptr<const void> keepalive)
      : data_(p), n_(n), keepalive_(std::move(keepalive)) {}

  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  [[nodiscard]] std::size_t bytes() const noexcept { return n_ * sizeof(T); }

 private:
  const T* data_ = nullptr;
  std::size_t n_ = 0;
  std::shared_ptr<const void> keepalive_;
};

/// Metadata column: a plain arena for stateful types; for EMPTY metadata
/// (graph::none, dropped projections) it stores nothing at all -- zero heap
/// bytes, zero snapshot bytes -- and hands out a shared dummy instance.
template <typename T, bool Empty = std::is_empty_v<T>>
class meta_column {
 public:
  meta_column() = default;
  explicit meta_column(std::vector<T> v) : col_(std::move(v)) {}
  meta_column(const T* p, std::size_t n, std::shared_ptr<const void> keepalive)
      : col_(p, n, std::move(keepalive)) {}

  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return col_[i]; }
  [[nodiscard]] const T* data() const noexcept { return col_.data(); }
  [[nodiscard]] std::size_t size() const noexcept { return col_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return col_.bytes(); }
  static constexpr std::size_t element_size = sizeof(T);

 private:
  arena<T> col_;
};

template <typename T>
class meta_column<T, true> {
 public:
  meta_column() = default;
  explicit meta_column(std::size_t n) noexcept : n_(n) {}

  [[nodiscard]] const T& operator[](std::size_t) const noexcept { return dummy(); }
  [[nodiscard]] const T* data() const noexcept { return nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return 0; }
  static constexpr std::size_t element_size = 0;

  [[nodiscard]] static const T& dummy() noexcept {
    static const T instance{};
    return instance;
  }

 private:
  std::size_t n_ = 0;
};

namespace detail {

/// Incremental FNV-1a accumulator (serial::fnv1a, as the snapshot-layer
/// checksum): the building block of the snapshot content id.  Lives here
/// rather than in snapshot.hpp because the include direction runs
/// snapshot.hpp -> frozen.hpp and the id is a property of the arenas, not
/// of any particular file that stores them.
struct fnv1a_accumulator {
  std::uint64_t h = serial::kFnv1aBasis;

  void mix_bytes(const void* p, std::size_t n) noexcept { h = serial::fnv1a(p, n, h); }

  /// Mix a u64 as its little-endian byte image (endianness-stable, matching
  /// the snapshot wire format).
  void mix_u64(std::uint64_t v) noexcept {
    unsigned char le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
    mix_bytes(le, sizeof(le));
  }
};

/// Collective: the Table 1 columns of a graph with record views
/// (frozen_dodgr, overlay), walked through `for_all_local`.
template <typename G>
[[nodiscard]] graph_census census_of(comm::communicator& c, const G& g) {
  std::uint64_t verts = 0, dir_edges = 0, dmax = 0, dmax_plus = 0, wedges = 0;
  g.for_all_local([&](vertex_id, const auto& rec) {
    ++verts;
    dir_edges += rec.degree;
    dmax = std::max(dmax, rec.degree);
    const std::uint64_t dp = rec.out_degree();
    dmax_plus = std::max(dmax_plus, dp);
    wedges += dp * (dp - 1) / 2;
  });
  graph_census out;
  out.num_vertices = c.all_reduce_sum(verts);
  out.num_directed_edges = c.all_reduce_sum(dir_edges);
  out.max_degree = c.all_reduce_max(dmax);
  out.max_out_degree = c.all_reduce_max(dmax_plus);
  out.wedge_checks = c.all_reduce_sum(wedges);
  return out;
}

}  // namespace detail

/// The raw column bundle of one rank's graph.  graph_builder fills it
/// directly, freeze() projects it, overlay::compact() fills it through
/// detail::build_arenas and load_snapshot() with views into a mapped file.
/// Public so the snapshot layer and white-box tests can reach the columns
/// without friending.
template <typename VMeta, typename EMeta>
struct frozen_arenas {
  // vertex columns (n entries; offset has n+1)
  arena<vertex_id> vid;
  arena<std::uint64_t> degree;
  arena<std::uint64_t> order_rank;
  arena<std::uint64_t> offset;
  meta_column<VMeta> vmeta;
  // edge columns (m entries)
  arena<vertex_id> target;
  arena<std::uint64_t> target_rank;
  arena<std::uint64_t> target_out_degree;
  meta_column<EMeta> emeta;
  meta_column<VMeta> target_vmeta;
};

/// Rank-local storage footprint of a frozen graph (bitwise-reducible).
struct frozen_storage_stats {
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;             ///< local directed (out-)edges
  std::uint64_t vertex_bytes = 0;      ///< vid+degree+rank+offset+vmeta arenas
  std::uint64_t edge_bytes = 0;        ///< target+rank+outdeg+emeta+tvmeta arenas
  std::uint64_t index_bytes = 0;       ///< id -> slot hash index (estimate)
  /// Always 0: frozen graphs carry no hub bitmap rows.  Kept only for
  /// bench/pipeline's report schema (`freeze.hub_vertices`); a later
  /// benchmark-only change drops it with `freeze.hub_vertices` and
  /// `intersect.bitmap_*` (ROADMAP item 6).
  std::uint64_t hub_vertices = 0;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return vertex_bytes + edge_bytes + index_bytes;
  }
  [[nodiscard]] double bytes_per_edge() const noexcept {
    return edges > 0 ? static_cast<double>(total_bytes()) / static_cast<double>(edges)
                     : 0.0;
  }
};

/// Immutable CSR structure-of-arrays form of a DODGr: slot-addressed record
/// views with adjacency spans sorted by <+, no write API.  graph_builder
/// fills it; freeze() projects its metadata.
template <typename VMeta, typename EMeta>
class frozen_dodgr {
 public:
  using vertex_meta_type = VMeta;
  using edge_meta_type = EMeta;
  using arenas_type = frozen_arenas<VMeta, EMeta>;
  using self = frozen_dodgr<VMeta, EMeta>;

  /// One Adjm+ entry materialized from the SoA columns.  Mirrors the data
  /// members of the overlay's mutable `adj_entry`; metadata members are
  /// references into the arenas (or a shared dummy for empty metadata).
  struct entry_view {
    vertex_id target = 0;
    std::uint64_t target_rank = 0;
    std::uint64_t target_out_degree = 0;
    const EMeta& edge_meta;
    const VMeta& target_meta;

    [[nodiscard]] order_key key() const noexcept {
      return make_order_key(target, target_rank);
    }
  };

  /// Random-access view over one vertex's CSR adjacency slice.  Iterators
  /// materialize `entry_view`s by value (the SoA twin of
  /// serial::raw_read_iterator's by-value reference; the C++20
  /// random-access requirements this genuinely models are what the survey
  /// engine and intersection kernels rely on).
  class adj_span {
   public:
    class iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = entry_view;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = entry_view;

      iterator() = default;
      iterator(const arenas_type* ar, std::size_t i) noexcept : ar_(ar), i_(i) {}

      [[nodiscard]] entry_view operator*() const noexcept {
        return entry_view{ar_->target[i_], ar_->target_rank[i_],
                          ar_->target_out_degree[i_], ar_->emeta[i_],
                          ar_->target_vmeta[i_]};
      }
      [[nodiscard]] entry_view operator[](difference_type n) const noexcept {
        return *(*this + n);
      }

      iterator& operator++() noexcept { ++i_; return *this; }
      iterator operator++(int) noexcept { auto t = *this; ++i_; return t; }
      iterator& operator--() noexcept { --i_; return *this; }
      iterator operator--(int) noexcept { auto t = *this; --i_; return t; }
      iterator& operator+=(difference_type n) noexcept {
        i_ = static_cast<std::size_t>(static_cast<difference_type>(i_) + n);
        return *this;
      }
      iterator& operator-=(difference_type n) noexcept { return *this += -n; }
      [[nodiscard]] iterator operator+(difference_type n) const noexcept {
        auto t = *this;
        return t += n;
      }
      [[nodiscard]] friend iterator operator+(difference_type n, iterator it) noexcept {
        return it + n;
      }
      [[nodiscard]] iterator operator-(difference_type n) const noexcept {
        auto t = *this;
        return t -= n;
      }
      [[nodiscard]] difference_type operator-(const iterator& o) const noexcept {
        return static_cast<difference_type>(i_) - static_cast<difference_type>(o.i_);
      }
      [[nodiscard]] bool operator==(const iterator& o) const noexcept {
        return i_ == o.i_;
      }
      [[nodiscard]] auto operator<=>(const iterator& o) const noexcept {
        return i_ <=> o.i_;
      }

     private:
      const arenas_type* ar_ = nullptr;
      std::size_t i_ = 0;
    };

    adj_span() = default;
    adj_span(const arenas_type* ar, std::size_t first, std::size_t last) noexcept
        : ar_(ar), first_(first), last_(last) {}

    [[nodiscard]] std::size_t size() const noexcept { return last_ - first_; }
    [[nodiscard]] bool empty() const noexcept { return first_ == last_; }
    [[nodiscard]] iterator begin() const noexcept { return iterator(ar_, first_); }
    [[nodiscard]] iterator end() const noexcept { return iterator(ar_, last_); }
    [[nodiscard]] entry_view operator[](std::size_t i) const noexcept {
      return *iterator(ar_, first_ + i);
    }

   private:
    const arenas_type* ar_ = nullptr;
    std::size_t first_ = 0;
    std::size_t last_ = 0;
  };

  /// Read view of one vertex record: the data members the engine reads from
  /// the overlay's mutable `vertex_record`, backed by the columns.
  struct record_view {
    std::uint64_t degree = 0;
    std::uint64_t order_rank = 0;
    const VMeta& meta;
    adj_span adj;

    [[nodiscard]] std::uint64_t out_degree() const noexcept { return adj.size(); }
  };

  using record_type = record_view;
  using entry_type = entry_view;
  using index_map = std::unordered_map<vertex_id, std::uint32_t, comm::key_hash<vertex_id>>;

  /// An empty graph; graph_builder::build_into fills it.
  explicit frozen_dodgr(comm::communicator& c)
      : frozen_dodgr(c, empty_arenas(), ordering_policy::degree) {}

  frozen_dodgr(comm::communicator& c, arenas_type&& ar, ordering_policy ordering)
      : frozen_dodgr(c, std::move(ar), ordering, index_of(ar.vid)) {}

  /// Columns whose vid column is that of the graph `index` was built for
  /// (freeze() shares both with its source).
  frozen_dodgr(comm::communicator& c, arenas_type&& ar, ordering_policy ordering,
               std::shared_ptr<const index_map> index)
      : comm_(&c), ar_(std::move(ar)), index_(std::move(index)), ordering_(ordering) {}

  frozen_dodgr(const frozen_dodgr&) = delete;
  frozen_dodgr& operator=(const frozen_dodgr&) = delete;
  frozen_dodgr(frozen_dodgr&&) = default;
  frozen_dodgr& operator=(frozen_dodgr&&) = default;

  [[nodiscard]] comm::communicator& comm() const noexcept { return *comm_; }
  [[nodiscard]] int owner(vertex_id v) const noexcept {
    return comm_->owner(comm::key_hash<vertex_id>{}(v));
  }

  /// Nullable record handle: contextually bool, -> and * reach the record.
  [[nodiscard]] std::optional<record_view> local_find(vertex_id v) const {
    const auto it = index_->find(v);
    if (it == index_->end()) return std::nullopt;
    return record_at(it->second);
  }

  /// CSR slot of a known-local vertex (4 bytes), resolved back to a view
  /// without touching the hash index.  Precondition: `v` is stored on this
  /// rank.
  [[nodiscard]] std::uint32_t locate(vertex_id v) const { return index_->at(v); }
  [[nodiscard]] record_view resolve_record(std::uint32_t slot) const {
    return record_at(slot);
  }

  /// Vertex id stored at a CSR slot (for chunked slot-range walks).
  [[nodiscard]] vertex_id vid_at(std::uint32_t slot) const noexcept {
    return ar_.vid[slot];
  }

  /// Apply `fn(vertex_id, const record_view&)` to every local vertex, in
  /// ascending <+ order (the degeneracy-ordered CSR walk).
  template <typename Fn>
  void for_all_local(Fn&& fn) const {
    for (std::size_t i = 0; i < ar_.vid.size(); ++i) {
      const record_view rec = record_at(i);
      fn(ar_.vid[i], rec);
    }
  }

  [[nodiscard]] std::size_t local_num_vertices() const noexcept {
    return ar_.vid.size();
  }
  [[nodiscard]] std::size_t local_num_edges() const noexcept {
    return ar_.target.size();
  }

  /// Collective: Table 1 columns.
  [[nodiscard]] graph_census census() const { return detail::census_of(*comm_, *this); }

  [[nodiscard]] ordering_policy ordering() const noexcept { return ordering_; }

  [[nodiscard]] const arenas_type& arenas() const noexcept { return ar_; }

  /// The id -> slot index over the vid column.
  [[nodiscard]] const std::shared_ptr<const index_map>& index() const noexcept {
    return index_;
  }

  /// Rank-local content id: FNV-1a over the graph's identity fields
  /// (nranks, rank, ordering, n, m, metadata element sizes) followed by the
  /// logical bytes of every stored column in file order (for metadata that
  /// is not bitwise, e.g. strings, each element's serialized bytes).  Codec- and
  /// storage-independent: a freeze(), a raw reload and a compressed reload
  /// of the same graph all report the same id, because compressed sections
  /// decode back to the exact arena bytes.  Never 0 (0 is the
  /// "absent" wire value in snapshot headers); not cryptographic -- this is
  /// a cache key and an operator diffing aid, with the same failure model
  /// as the snapshot checksums.  Computed lazily and cached; save_snapshot
  /// stamps it into every snapshot header and load_snapshot adopts the
  /// stamped value, so a reload pays no hash pass.
  [[nodiscard]] std::uint64_t snapshot_id() const {
    if (snapshot_id_ != 0) return snapshot_id_;
    detail::fnv1a_accumulator acc;
    acc.mix_u64(static_cast<std::uint64_t>(comm_->size()));
    acc.mix_u64(static_cast<std::uint64_t>(comm_->rank()));
    acc.mix_u64(static_cast<std::uint64_t>(ordering_));
    acc.mix_u64(ar_.vid.size());
    acc.mix_u64(ar_.target.size());
    acc.mix_u64(meta_column<VMeta>::element_size);
    acc.mix_u64(meta_column<EMeta>::element_size);
    const auto mix_column = [&acc](const auto& col) {
      using T = std::remove_cvref_t<decltype(*col.data())>;
      if constexpr (serial::detail::bitwise<T>) {
        if (col.bytes() > 0) acc.mix_bytes(col.data(), col.bytes());
      } else {
        // The object bytes of e.g. a std::string are heap pointers: hash
        // each element's serialized form (length and bytes) instead.
        serial::byte_buffer buf;
        serial::writer w(buf);
        for (std::size_t i = 0; i < col.size(); ++i) {
          buf.clear();
          w(col[i]);
          acc.mix_bytes(buf.data(), buf.size());
        }
      }
    };
    mix_column(ar_.vid);
    mix_column(ar_.degree);
    mix_column(ar_.order_rank);
    mix_column(ar_.offset);
    mix_column(ar_.vmeta);
    mix_column(ar_.target);
    mix_column(ar_.target_rank);
    mix_column(ar_.target_out_degree);
    mix_column(ar_.emeta);
    mix_column(ar_.target_vmeta);
    snapshot_id_ = acc.h != 0 ? acc.h : 1;
    return snapshot_id_;
  }

  /// Adopt a content id stamped in a snapshot header.  0 means "absent"
  /// and is ignored, leaving the compute-on-demand path of snapshot_id().
  void adopt_snapshot_id(std::uint64_t id) noexcept {
    if (id != 0) snapshot_id_ = id;
  }

  /// Rank-local arena footprint (exact for the columns; the id->slot index
  /// is estimated at one bucket pointer plus one packed node per vertex).
  [[nodiscard]] frozen_storage_stats local_storage_stats() const noexcept {
    frozen_storage_stats s;
    s.vertices = ar_.vid.size();
    s.edges = ar_.target.size();
    s.vertex_bytes = ar_.vid.bytes() + ar_.degree.bytes() + ar_.order_rank.bytes() +
                     ar_.offset.bytes() + ar_.vmeta.bytes();
    s.edge_bytes = ar_.target.bytes() + ar_.target_rank.bytes() +
                   ar_.target_out_degree.bytes() + ar_.emeta.bytes() +
                   ar_.target_vmeta.bytes();
    s.index_bytes =
        index_->bucket_count() * sizeof(void*) +
        index_->size() * (sizeof(std::pair<vertex_id, std::uint32_t>) + sizeof(void*));
    return s;
  }

  /// Collective: storage footprint summed over ranks (identical everywhere).
  [[nodiscard]] frozen_storage_stats global_storage_stats() {
    const auto local = local_storage_stats();
    frozen_storage_stats g;
    g.vertices = comm_->all_reduce_sum(local.vertices);
    g.edges = comm_->all_reduce_sum(local.edges);
    g.vertex_bytes = comm_->all_reduce_sum(local.vertex_bytes);
    g.edge_bytes = comm_->all_reduce_sum(local.edge_bytes);
    g.index_bytes = comm_->all_reduce_sum(local.index_bytes);
    return g;
  }

 private:
  [[nodiscard]] record_view record_at(std::size_t i) const noexcept {
    return record_view{ar_.degree[i], ar_.order_rank[i], ar_.vmeta[i],
                       adj_span(&ar_, ar_.offset[i], ar_.offset[i + 1])};
  }

  [[nodiscard]] static arenas_type empty_arenas() {
    arenas_type ar;
    ar.offset = arena<std::uint64_t>(std::vector<std::uint64_t>{0});
    return ar;
  }

  [[nodiscard]] static std::shared_ptr<const index_map> index_of(const arena<vertex_id>& vid) {
    // The id->slot index is 32-bit by design; a rank holding >= 2^32 local
    // vertices must fail loudly, not wrap silently.
    if (vid.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error(
          "frozen_dodgr: more than 2^32-1 local vertices on one rank; the "
          "32-bit slot index cannot address this partition (use more ranks)");
    }
    auto index = std::make_shared<index_map>();
    index->reserve(vid.size());
    for (std::size_t i = 0; i < vid.size(); ++i) {
      index->emplace(vid[i], static_cast<std::uint32_t>(i));
    }
    return index;
  }

  comm::communicator* comm_;
  arenas_type ar_;
  std::shared_ptr<const index_map> index_;
  ordering_policy ordering_ = ordering_policy::degree;
  mutable std::uint64_t snapshot_id_ = 0;  ///< 0: not yet computed/adopted
};

namespace detail {

/// Identity metadata copy for projection-free freezes (the graph-layer twin
/// of tripoll::identity_projection, which lives in core/).
struct copy_meta {
  template <typename T>
  [[nodiscard]] const T& operator()(const T& v) const noexcept {
    return v;
  }
};

template <typename Col, typename T>
[[nodiscard]] Col make_meta_column(std::vector<T>&& values, std::size_t n) {
  if constexpr (Col::element_size == 0) {
    (void)values;
    return Col(n);
  } else {
    return Col(std::move(values));
  }
}

/// One rank's CSR arenas from mutable records (the overlay's incremental
/// re-freeze).  `order` pairs each record with its <+ order key; sorting it
/// fixes the vertex walk order regardless of hash-map iteration.  The
/// metadata projections are applied once per cell.
template <typename PV, typename PE, typename Record, typename VProj, typename EProj>
[[nodiscard]] frozen_arenas<PV, PE> build_arenas(
    std::vector<std::pair<order_key, const Record*>> order, const VProj& vproj,
    const EProj& eproj, const freeze_options& opts) {
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const std::size_t n = order.size();
  const int threads = core::resolve_threads(opts.threads);

  // CSR offsets first (serial size scan + prefix sum): they are both a
  // snapshot column and the partition that lets the fill below run over
  // disjoint vertex chunks with no cross-thread writes.
  std::vector<std::uint64_t> offset(n + 1);
  offset[0] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    offset[i + 1] = offset[i] + order[i].second->adj.size();
  }
  const std::size_t m = offset[n];

  std::vector<vertex_id> vid(n);
  std::vector<std::uint64_t> degree(n), order_rank(n);
  std::vector<PV> vmeta;
  std::vector<vertex_id> target(m);
  std::vector<std::uint64_t> target_rank(m), target_outdeg(m);
  std::vector<PE> emeta;
  std::vector<PV> tvmeta;
  if constexpr (!std::is_empty_v<PV>) {
    vmeta.resize(n);
    tvmeta.resize(m);
  }
  if constexpr (!std::is_empty_v<PE>) emeta.resize(m);

  // Column fill over self-scheduled vertex chunks.  Every cell is written
  // exactly once, from the chunk owning its vertex, so the arenas come out
  // byte-identical at every thread count (projections are const-invoked and
  // must be thread-safe; the stateless norm trivially is).
  {
    core::chunk_queue chunks(n, core::chunk_size_for(n, threads));
    core::fork_join(threads, [&](int) {
      std::size_t first = 0, last = 0;
      while (chunks.next(first, last)) {
        for (std::size_t i = first; i < last; ++i) {
          const auto& [key, rec] = order[i];
          vid[i] = key.id;
          degree[i] = rec->degree;
          order_rank[i] = rec->order_rank;
          if constexpr (!std::is_empty_v<PV>) vmeta[i] = vproj(rec->meta);
          std::size_t e = offset[i];
          for (const auto& entry : rec->adj) {
            target[e] = entry.target;
            target_rank[e] = entry.target_rank;
            target_outdeg[e] = entry.target_out_degree;
            if constexpr (!std::is_empty_v<PE>) emeta[e] = eproj(entry.edge_meta);
            if constexpr (!std::is_empty_v<PV>) tvmeta[e] = vproj(entry.target_meta);
            ++e;
          }
        }
      }
    });
  }

  frozen_arenas<PV, PE> ar;
  ar.vid = arena<vertex_id>(std::move(vid));
  ar.degree = arena<std::uint64_t>(std::move(degree));
  ar.order_rank = arena<std::uint64_t>(std::move(order_rank));
  ar.offset = arena<std::uint64_t>(std::move(offset));
  ar.vmeta = make_meta_column<meta_column<PV>>(std::move(vmeta), n);
  ar.target = arena<vertex_id>(std::move(target));
  ar.target_rank = arena<std::uint64_t>(std::move(target_rank));
  ar.target_out_degree = arena<std::uint64_t>(std::move(target_outdeg));
  ar.emeta = make_meta_column<meta_column<PE>>(std::move(emeta), m);
  ar.target_vmeta = make_meta_column<meta_column<PV>>(std::move(tvmeta), m);
  return ar;
}

/// A projected metadata column: nothing for an empty type, `in` itself
/// (shared) under the identity projection, otherwise the projection applied
/// once per cell over `threads` workers.
template <typename P, typename T, typename Proj>
[[nodiscard]] meta_column<P> project_column(const meta_column<T>& in, const Proj& proj,
                                            int threads) {
  const std::size_t n = in.size();
  if constexpr (std::is_empty_v<P>) {
    return meta_column<P>(n);
  } else if constexpr (std::is_same_v<Proj, copy_meta> && std::is_same_v<P, T>) {
    return in;
  } else {
    std::vector<P> out(n);
    core::chunk_queue chunks(n, core::chunk_size_for(n, threads));
    core::fork_join(threads, [&](int) {
      std::size_t first = 0, last = 0;
      while (chunks.next(first, last)) {
        for (std::size_t i = first; i < last; ++i) out[i] = proj(in[i]);
      }
    });
    return meta_column<P>(std::move(out));
  }
}

}  // namespace detail

/// The graph the builder fills is the frozen graph.
template <typename VMeta, typename EMeta>
using dodgr = frozen_dodgr<VMeta, EMeta>;

/// Project a graph's metadata ONCE, storing only the projected columns
/// (projection push-down: surveys over the result run with identity
/// projections and read pre-projected arenas).  The id, degree, rank,
/// offset and target columns, the metadata columns the projection leaves
/// unchanged and the id -> slot index are shared with `g`, not copied; `g`
/// may be discarded afterwards.
template <typename VMeta, typename EMeta, typename VProj, typename EProj>
[[nodiscard]] auto freeze(const frozen_dodgr<VMeta, EMeta>& g, VProj vproj, EProj eproj,
                          const freeze_options& opts = {}) {
  using PV = std::remove_cvref_t<std::invoke_result_t<const VProj&, const VMeta&>>;
  using PE = std::remove_cvref_t<std::invoke_result_t<const EProj&, const EMeta&>>;
  const auto& in = g.arenas();
  const int threads = core::resolve_threads(opts.threads);

  frozen_arenas<PV, PE> ar;
  ar.vid = in.vid;
  ar.degree = in.degree;
  ar.order_rank = in.order_rank;
  ar.offset = in.offset;
  ar.vmeta = detail::project_column<PV>(in.vmeta, vproj, threads);
  ar.target = in.target;
  ar.target_rank = in.target_rank;
  ar.target_out_degree = in.target_out_degree;
  ar.emeta = detail::project_column<PE>(in.emeta, eproj, threads);
  ar.target_vmeta = detail::project_column<PV>(in.target_vmeta, vproj, threads);
  return frozen_dodgr<PV, PE>(g.comm(), std::move(ar), g.ordering(), g.index());
}

/// Freeze with the metadata stored unchanged: a graph sharing every column.
template <typename VMeta, typename EMeta>
[[nodiscard]] frozen_dodgr<VMeta, EMeta> freeze(const frozen_dodgr<VMeta, EMeta>& g,
                                                const freeze_options& opts = {}) {
  return freeze(g, detail::copy_meta{}, detail::copy_meta{}, opts);
}

/// Freeze through a survey plan's declared projections: the frozen graph
/// stores exactly what that plan (and every plan sharing its projections)
/// ships -- run the plan over the frozen graph WITHOUT re-declaring the
/// projections, they are baked into the arenas.
template <typename Plan>
  requires requires(const Plan& p) {
    p.graph();
    p.vertex_proj();
    p.edge_proj();
  }
[[nodiscard]] auto freeze(const Plan& plan, const freeze_options& opts = {}) {
  return freeze(plan.graph(), plan.vertex_proj(), plan.edge_proj(), opts);
}

}  // namespace tripoll::graph
