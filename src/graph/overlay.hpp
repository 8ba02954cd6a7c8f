// overlay.hpp -- mutable delta overlay over a frozen DODGr (streaming
// ingest, windowed expiry, incremental re-freeze).
//
// The frozen CSR (graph/frozen.hpp) is build-once: a new batch of
// timestamped edges would force a full re-shuffle, re-peel and re-freeze --
// O(|E|) work for an O(|delta|) change.  `graph::overlay` makes the graph
// a stream target instead:
//
//   frozen_dodgr<VM, EM> base = ...;        // or load_snapshot()
//   graph::overlay ov(base);                // collective, one-time O(|E|)
//   ov.ingest(batch);                       // collective, O(|delta|) rounds
//   tripoll::survey(ov)....run(opts);       // same engine, same results
//   auto refrozen = ov.compact();           // incremental re-freeze
//
// Like the frozen CSR, the overlay is a core::slot_addressed_graph: every
// local vertex owns a dense 32-bit slot, appended when the vertex first
// appears and never reused, that resolves to its record (<+-sorted Adjm+)
// and vertex id.  The survey engine therefore runs over it on the same path
// as over a frozen graph -- threads, worker-side fires and all -- and its
// reported metrics, sums of per-batch contributions, are bit-identical to
// surveying a full rebuild of the same logical graph.
//
// Incremental maintenance model.  Each local vertex keeps, alongside its
// oriented Adjm+ record, its full UNDIRECTED metadata-augmented neighbor
// list (id, cached <+ rank, edge metadata, neighbor vertex metadata),
// replicated at both endpoints.  A batch then settles in delta-proportional
// collective rounds.  Every round that talks to other ranks ships its
// entries through a comm::column_exchange (push, flush, barrier, then the
// owning thread walks the inbox); the overlay registers no handler of its
// own:
//
//   I1 route+dedup : edges normalize to (min,max) and shuffle to the owner
//                    of the min endpoint; duplicates within the batch merge
//                    chronologically-first (builder merge::keep_least when
//                    the metadata is ordered); duplicates of an already
//                    stored edge are dropped -- the stored edge wins.
//   I2 insert      : surviving edges insert undirected entries at both
//                    endpoints (new vertices materialize on their owner
//                    with vmeta_of(v)); both endpoints are marked dirty.
//   I3 rank+info   : dirty vertices recompute degree (and, under degree
//                    ordering, their <+ rank -- degeneracy peel ranks are
//                    sticky: existing vertices keep their frozen rank, new
//                    vertices enter at their current degree) and send
//                    (id, rank, meta) to every neighbor, one exchange entry
//                    per (neighbor, dirty vertex).  A receiver refreshes its
//                    cached entry; it joins the rebuild set ONLY if the
//                    rank change flips the edge's <+ orientation.  A
//                    non-flipping rank change is patched in place (the
//                    entry rotates to its new key-sorted slot, O(deg)),
//                    so a batch at a hub does not cascade into O(deg)
//                    record rebuilds.
//   I4 rebuild     : vertices whose Adjm+ membership changed (batch
//                    endpoints, expiry, orientation flips) re-orient and
//                    re-sort their record from the local neighbor list
//                    (two-sided state makes this a purely local pass),
//                    noting whether their out-SET actually changed.
//   I5 d+ flow     : targeted builder-P6 twin -- only records whose
//                    out-set changed report their new d+ to in-neighbors
//                    (plus each endpoint of a round-new edge to its new
//                    neighbor), patching target_out_degree in place;
//                    rank-patched records keep their d+ and owe nothing.
//
// Windowed expiry (`expire_before(t_min)`) drops aged-out undirected
// entries locally at BOTH endpoints (the replicated edge metadata makes the
// cut symmetric without communication) and reuses rounds I3-I5.
// `compact()` is the incremental re-freeze: per-rank merge of the overlay
// records into fresh CSR arenas in <+ order through the frozen column
// builder (detail::build_arenas), REUSING the maintained ranks -- no shuffle, no degeneracy peel.
// The result is an ordinary frozen_dodgr whose snapshots round-trip.
//
// Thread-safety: the overlay is rank-local mutable state; mutating
// collectives (ingest/expire_before/compact) must be called from the
// owning thread with no survey in flight (docs/THREADING.md,
// docs/STREAMING.md).  A survey only reads it, so survey_options::threads
// workers share it like a frozen graph.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "comm/column_exchange.hpp"
#include "comm/communicator.hpp"
#include "comm/key_hash.hpp"
#include "graph/frozen.hpp"
#include "graph/ordering.hpp"
#include "graph/types.hpp"
#include "serial/serialize.hpp"

namespace tripoll::graph {

/// One entry of a mutable Adjm+(u) list.
template <typename VertexMeta, typename EdgeMeta>
struct adj_entry {
  vertex_id target = 0;
  std::uint64_t target_rank = 0;        ///< target's <+ comparison rank
  std::uint64_t target_out_degree = 0;  ///< d+(target): drives pull decisions
  EdgeMeta edge_meta{};
  VertexMeta target_meta{};

  [[nodiscard]] order_key key() const noexcept {
    return make_order_key(target, target_rank);
  }
};

/// Mutable per-vertex record: meta(u) plus Adjm+(u), sorted by <+ of target.
template <typename VertexMeta, typename EdgeMeta>
struct vertex_record {
  std::uint64_t degree = 0;      ///< d(u) in the undirected graph G
  std::uint64_t order_rank = 0;  ///< u's own <+ comparison rank
  VertexMeta meta{};
  std::vector<adj_entry<VertexMeta, EdgeMeta>> adj;

  [[nodiscard]] std::uint64_t out_degree() const noexcept { return adj.size(); }
};

/// One timestamped edge contributed to an overlay batch (any rank may
/// contribute any edge; self-loops are dropped, duplicates merge).
template <typename EMeta>
struct overlay_edge {
  vertex_id u = 0;
  vertex_id v = 0;
  EMeta meta{};
};

/// Global (identical on every rank) outcome of one ingest/expiry round.
struct overlay_ingest_stats {
  std::uint64_t submitted = 0;      ///< raw edges contributed (incl. dupes)
  std::uint64_t accepted = 0;       ///< genuinely-new undirected edges
  std::uint64_t duplicate_batch = 0;///< merged within the batch
  std::uint64_t duplicate_base = 0; ///< dropped: edge already stored
  std::uint64_t self_loops = 0;     ///< dropped at routing
  std::uint64_t new_vertices = 0;   ///< vertices first seen in this batch
  std::uint64_t rebuilt_vertices = 0; ///< records re-oriented this round
  std::uint64_t expired_edges = 0;  ///< undirected edges aged out
};

template <typename VMeta, typename EMeta>
class overlay {
 public:
  using vertex_meta_type = VMeta;
  using edge_meta_type = EMeta;
  using base_type = frozen_dodgr<VMeta, EMeta>;
  using entry_type = adj_entry<VMeta, EMeta>;
  using record_type = vertex_record<VMeta, EMeta>;
  using edge_batch = std::vector<overlay_edge<EMeta>>;

  /// Edge metadata orderable => batch duplicates merge chronologically
  /// first.  Otherwise the first copy in the owner's inbox wins: that is
  /// deterministic for copies from one sender, but copies from different
  /// senders land in arrival order, so which of them wins may vary.
  static constexpr bool meta_ordered = requires(const EMeta& a, const EMeta& b) {
    { a < b } -> std::convertible_to<bool>;
  };
  /// Edge metadata readable as a timestamp => windowed expiry available.
  static constexpr bool meta_timestamped = std::is_convertible_v<EMeta, std::uint64_t>;

  /// Collective: materialize the mutable overlay from a frozen base.  One
  /// O(|E|) pass copies the oriented records and exchanges the reverse
  /// direction so every vertex holds its full undirected neighbor list.
  explicit overlay(base_type& base)
      : comm_(&base.comm()), ordering_(base.ordering()), edges_(*comm_), info_(*comm_),
        dplus_(*comm_) {
    // Copy every local record, and send each oriented edge (v -> x) to x's
    // owner, which registers v (rank, metadata, edge metadata) in x's
    // undirected neighbor list.
    comm::column_exchange<vertex_id, vertex_id, std::uint64_t, VMeta, EMeta> reverse(*comm_);
    nodes_.reserve(base.local_num_vertices());
    slots_.reserve(base.local_num_vertices());
    base.for_all_local([&](const vertex_id& v, const auto& rec) {
      node& nd = add_node(v);
      nd.rec.degree = rec.degree;
      nd.rec.order_rank = rec.order_rank;
      nd.rec.meta = rec.meta;
      nd.rec.adj.reserve(rec.adj.size());
      nd.nbrs.reserve(rec.degree);
      for (const auto& e : rec.adj) {
        nd.rec.adj.push_back(entry_type{e.target, e.target_rank,
                                        e.target_out_degree, e.edge_meta,
                                        e.target_meta});
        nd.nbrs.push_back(nbr{e.target, e.target_rank, e.edge_meta, e.target_meta});
        reverse.push(owner(e.target), e.target, v, rec.order_rank, rec.meta, e.edge_meta);
      }
    });
    reverse.flush();
    comm_->barrier();
    auto& [at, from, from_rank, from_meta, emeta] = reverse.inbox();
    for (std::size_t i = 0; i < at.size(); ++i) {
      node* nd = find_node(at[i]);
      if (nd == nullptr) {
        throw std::runtime_error(
            "tripoll: overlay: base edge targets vertex " + std::to_string(at[i]) +
            " that is not stored on its owner rank");
      }
      nd->nbrs.push_back(nbr{from[i], from_rank[i], std::move(emeta[i]), std::move(from_meta[i])});
    }
    reverse.release_inbox();
    for (auto& [v, nd] : nodes_) {
      (void)v;
      std::sort(nd.nbrs.begin(), nd.nbrs.end(),
                [](const nbr& a, const nbr& b) { return a.id < b.id; });
    }
    sid_ = base.snapshot_id();
  }

  // --- slot-addressed read API (what the survey engine traverses) ----------

  [[nodiscard]] comm::communicator& comm() noexcept { return *comm_; }
  [[nodiscard]] int owner(vertex_id v) const noexcept {
    return comm_->owner(comm::key_hash<vertex_id>{}(v));
  }

  /// Slot of a known-local vertex.  Precondition: `v` is stored here.
  [[nodiscard]] std::uint32_t locate(vertex_id v) const { return nodes_.at(v).slot; }
  [[nodiscard]] const record_type& resolve_record(std::uint32_t slot) const {
    return slots_[slot]->second.rec;
  }
  [[nodiscard]] vertex_id vid_at(std::uint32_t slot) const noexcept {
    return slots_[slot]->first;
  }

  /// Apply `fn(vertex_id, const record&)` to every local vertex, in slot order.
  template <typename Fn>
  void for_all_local(Fn&& fn) const {
    for (const auto* e : slots_) fn(e->first, e->second.rec);
  }

  [[nodiscard]] std::size_t local_num_vertices() const noexcept {
    return slots_.size();
  }

  [[nodiscard]] ordering_policy ordering() const noexcept { return ordering_; }

  /// Collective: Table 1 columns over base+delta.
  [[nodiscard]] graph_census census() const { return detail::census_of(*comm_, *this); }

  /// Rank-local content id, bumped deterministically by every mutating
  /// collective (service cache invalidation keys off it).  Seeded from the
  /// base's id, folded with the batch sequence number and the global
  /// accepted/expired counts -- identical inputs give identical ids, and
  /// any mutation that changed the graph changes the id.
  [[nodiscard]] std::uint64_t snapshot_id() const noexcept { return sid_; }

  /// How many mutating collectives (ingest/expire) have been applied.
  [[nodiscard]] std::uint64_t batches_applied() const noexcept { return batches_; }

  // --- mutation (collective) ------------------------------------------------

  /// Collective: apply one batch of timestamped edges.  New vertices get
  /// default-constructed metadata; see the overload below to supply it.
  overlay_ingest_stats ingest(const edge_batch& edges) {
    return ingest(edges, [](vertex_id) { return VMeta{}; });
  }

  /// Collective: apply one batch, with `vmeta_of(v)` supplying metadata for
  /// vertices first seen in this batch.  The function must be deterministic
  /// and identical on every rank (it runs on the new vertex's owner).
  template <typename VMetaFn>
  overlay_ingest_stats ingest(const edge_batch& edges, VMetaFn&& vmeta_of) {
    std::uint64_t self_loops = 0, accepted = 0, dup_batch = 0, dup_base = 0;

    // I1: normalize, drop self-loops, route to the min endpoint's owner
    // (the single dedup point for the batch AND for the stored graph).
    for (const auto& e : edges) {
      if (e.u == e.v) {
        ++self_loops;
        continue;
      }
      const vertex_id a = std::min(e.u, e.v);
      edges_.push(owner(a), a, std::max(e.u, e.v), e.meta);
    }
    edges_.flush();
    comm_->barrier();
    std::unordered_map<std::pair<vertex_id, vertex_id>, EMeta, pair_key_hash> batch;
    {
      auto& [a, b, meta] = edges_.inbox();
      for (std::size_t i = 0; i < a.size(); ++i) {
        const auto [it, inserted] = batch.try_emplace({a[i], b[i]}, meta[i]);
        if (inserted) continue;
        ++dup_batch;
        if constexpr (meta_ordered) {
          if (meta[i] < it->second) it->second = meta[i];  // chronologically first
        }
      }
    }
    edges_.release_inbox();

    // I2: accept genuinely-new edges; insert undirected entries two-sided.
    // The min endpoint's half is inserted here, the max endpoint's half on
    // its owner after the exchange.
    const auto insert_half = [&](vertex_id v, vertex_id to, const EMeta& meta) {
      node* nd = find_node(v);
      if (nd == nullptr) {
        nd = &add_node(v);
        nd->rec.meta = vmeta_of(v);
        fresh_.push_back(v);
      }
      insert_nbr(*nd, nbr{to, 0, meta, VMeta{}});
      dirty_.insert(v);
      round_new_.emplace_back(v, to);
    };
    for (const auto& [key, meta] : batch) {
      const auto [a, b] = key;
      const node* na = find_node(a);
      if (na != nullptr && has_nbr(*na, b)) {
        ++dup_base;
        continue;
      }
      ++accepted;
      insert_half(a, b, meta);
      edges_.push(owner(b), b, a, meta);
    }
    edges_.flush();
    comm_->barrier();
    {
      auto& [b, a, meta] = edges_.inbox();
      for (std::size_t i = 0; i < b.size(); ++i) insert_half(b[i], a[i], meta[i]);
    }
    edges_.release_inbox();
    const std::uint64_t new_vertices = fresh_.size();

    // I3-I5: shared rank/info/rebuild/d+ cascade.
    const std::uint64_t rebuilt = propagate_and_rebuild();

    // One batched all-reduce for every stat -- collectives have per-call
    // latency, and a streaming ingest's fixed cost is paid per batch.
    const auto t = reduce_stats(
        {edges.size(), accepted, dup_batch, dup_base, self_loops, new_vertices, rebuilt});
    const overlay_ingest_stats st{.submitted = t[0], .accepted = t[1],
                                  .duplicate_batch = t[2], .duplicate_base = t[3],
                                  .self_loops = t[4], .new_vertices = t[5],
                                  .rebuilt_vertices = t[6]};
    finish_mutation(st.accepted);
    return st;
  }

  /// Collective: sliding-window expiry -- drop every stored edge whose
  /// timestamp is strictly below `t_min`, then re-settle ranks, records and
  /// d+ through the same cascade ingest uses.  Only available when the edge
  /// metadata converts to a timestamp.
  overlay_ingest_stats expire_before(std::uint64_t t_min)
    requires meta_timestamped
  {
    std::uint64_t dropped_halves = 0;
    for (auto& [v, nd] : nodes_) {
      const auto old_size = nd.nbrs.size();
      std::erase_if(nd.nbrs, [&](const nbr& x) {
        return static_cast<std::uint64_t>(x.emeta) < t_min;
      });
      if (nd.nbrs.size() != old_size) {
        dropped_halves += old_size - nd.nbrs.size();
        dirty_.insert(v);
      }
    }
    const std::uint64_t rebuilt = propagate_and_rebuild();
    // Replicated metadata makes the cut symmetric: each undirected edge is
    // dropped at exactly its two endpoints, so halves sum to 2x edges.  One
    // batched all-reduce globalizes both counters.
    const auto t = reduce_stats({dropped_halves, rebuilt, 0, 0, 0, 0, 0});
    const overlay_ingest_stats st{.rebuilt_vertices = t[1], .expired_edges = t[0] / 2};
    finish_mutation(st.expired_edges);
    return st;
  }

  /// Collective: incremental re-freeze.  Merges the overlay records into
  /// fresh CSR arenas per rank in <+ order, REUSING the maintained ordering
  /// ranks (no shuffle, no degeneracy peel).  Vertices left with no edges
  /// (fully expired) are dropped, so the compacted graph equals a from-
  /// scratch build of the surviving edge set.  The columns come from
  /// detail::build_arenas (parallel over `opts.threads`, byte-identical at
  /// any count); the result is an ordinary frozen_dodgr whose snapshots
  /// round-trip.
  [[nodiscard]] base_type compact(const freeze_options& opts = {}) {
    std::vector<std::pair<order_key, const record_type*>> order;
    order.reserve(nodes_.size());
    for (const auto& [v, nd] : nodes_) {
      if (nd.nbrs.empty()) continue;  // fully expired: drop isolated vertices
      order.emplace_back(make_order_key(v, nd.rec.order_rank), &nd.rec);
    }
    auto ar = detail::build_arenas<VMeta, EMeta>(std::move(order), detail::copy_meta{},
                                                 detail::copy_meta{}, opts);
    comm_->barrier();
    return base_type(*comm_, std::move(ar), ordering_);
  }

 private:
  /// One undirected neighbor with replicated state: the cached <+ rank and
  /// vertex metadata of the neighbor, and the edge's metadata (stored at
  /// BOTH endpoints so orientation, expiry and rebuilds are local).
  struct nbr {
    vertex_id id = 0;
    std::uint64_t rank = 0;
    EMeta emeta{};
    VMeta vmeta{};
  };

  struct node {
    record_type rec;
    std::vector<nbr> nbrs;  ///< sorted by id
    std::uint32_t slot = 0;  ///< index into slots_
  };

  using node_map = std::unordered_map<vertex_id, node, comm::key_hash<vertex_id>>;

  [[nodiscard]] node* find_node(vertex_id v) {
    const auto it = nodes_.find(v);
    return it == nodes_.end() ? nullptr : &it->second;
  }

  /// Materialize a vertex not yet stored here and append it to the slot
  /// table.  Every node creation goes through this; nodes are never erased,
  /// and unordered_map entries keep their addresses, so slots stay valid.
  node& add_node(vertex_id v) {
    if (slots_.size() == std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("tripoll: overlay: more than 2^32-1 local vertices");
    }
    auto& entry = *nodes_.try_emplace(v).first;
    entry.second.slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(&entry);
    return entry.second;
  }

  [[nodiscard]] static bool has_nbr(const node& nd, vertex_id id) {
    const auto it = std::lower_bound(
        nd.nbrs.begin(), nd.nbrs.end(), id,
        [](const nbr& x, vertex_id key) { return x.id < key; });
    return it != nd.nbrs.end() && it->id == id;
  }

  static void insert_nbr(node& nd, nbr x) {
    const auto it = std::lower_bound(
        nd.nbrs.begin(), nd.nbrs.end(), x.id,
        [](const nbr& e, vertex_id key) { return e.id < key; });
    if (it != nd.nbrs.end() && it->id == x.id) {
      throw std::runtime_error("tripoll: overlay: duplicate neighbor insert for vertex " +
                               std::to_string(x.id));
    }
    nd.nbrs.insert(it, std::move(x));
  }

  /// Re-key one Adjm+ entry after its target's rank changed without an
  /// orientation flip: update the cached rank/meta and rotate the entry to
  /// its new key-sorted position.  O(deg) worst case vs the O(deg log deg)
  /// hash-and-resort of a full record rebuild, and the record stays sorted
  /// at every point, so later lookups (including further patches in the
  /// same round) keep binary-searching correctly.
  static void patch_adj_entry(record_type& rec, vertex_id target, std::uint64_t old_rank,
                              std::uint64_t new_rank, const VMeta& new_meta) {
    auto& adj = rec.adj;
    const auto key_less = [](const entry_type& e, const order_key& k) { return e.key() < k; };
    const order_key old_key = make_order_key(target, old_rank);
    const auto it = std::lower_bound(adj.begin(), adj.end(), old_key, key_less);
    if (it == adj.end() || it->target != target) return;
    it->target_rank = new_rank;
    it->target_meta = new_meta;
    const order_key new_key = it->key();
    if (new_key < old_key) {
      const auto pos = std::lower_bound(adj.begin(), it, new_key, key_less);
      std::rotate(pos, it, it + 1);
    } else {
      const auto pos = std::lower_bound(it + 1, adj.end(), new_key, key_less);
      std::rotate(it, it + 1, pos);
    }
  }

  /// I3-I5: recompute degree/rank for dirty vertices, send (id, rank, meta)
  /// to their neighborhoods, rebuild dirtied Adjm+ records locally, then
  /// flow d+ to in-neighbors.  Shared by ingest and expiry; returns the
  /// local number of rebuilt records (callers batch-reduce it).
  std::uint64_t propagate_and_rebuild() {
    // I3a: degrees and ranks are local state.  Under degree ordering the
    // rank IS the (updated) undirected degree, exactly what a full rebuild
    // would assign.  Degeneracy peel ranks are sticky for existing vertices
    // (re-peeling is a full-graph pass by construction); vertices first
    // seen this round enter the order at their current degree.
    for (const vertex_id v : dirty_) {
      node& nd = nodes_.at(v);
      nd.rec.degree = nd.nbrs.size();
      if (ordering_ == ordering_policy::degree) nd.rec.order_rank = nd.rec.degree;
    }
    if (ordering_ != ordering_policy::degree) {
      for (const vertex_id v : fresh_) {
        node& nd = nodes_.at(v);
        nd.rec.order_rank = nd.rec.degree;
      }
    }
    fresh_.clear();

    // I3b: send (id, rank, meta) to every neighbor of each dirty vertex.
    // Receivers refresh their cached entry; they join the rebuild set ONLY
    // if the rank change flips the edge's <+ orientation (their adjacency
    // membership changes).  A rank change that keeps the orientation is
    // patched in place -- without this distinction a single new edge at a
    // hub would trigger O(deg) full record rebuilds.
    dirty_adj_ = dirty_;
    for (const vertex_id v : dirty_) {
      const node& nd = nodes_.at(v);
      for (const nbr& x : nd.nbrs) {
        info_.push(owner(x.id), x.id, v, nd.rec.order_rank, nd.rec.meta);
      }
    }
    info_.flush();
    comm_->barrier();
    {
      auto& [to, from, from_rank, from_meta] = info_.inbox();
      for (std::size_t i = 0; i < to.size(); ++i) {
        apply_nbr_info(to[i], from[i], from_rank[i], from_meta[i]);
      }
    }
    info_.release_inbox();

    // I4: purely local re-orientation of every dirtied record.  Records
    // whose out-neighbor SET actually changed (new edge, expiry, or an
    // orientation flip) are remembered: they are the only vertices whose
    // d+ can differ, so they are the only ones that owe I5 reports.
    std::vector<vertex_id> dplus_changed;
    dplus_changed.reserve(dirty_adj_.size());
    for (const vertex_id v : dirty_adj_) {
      node& nd = nodes_.at(v);
      std::unordered_map<vertex_id, std::uint64_t> old_dplus;
      old_dplus.reserve(nd.rec.adj.size());
      for (const entry_type& e : nd.rec.adj) old_dplus.emplace(e.target, e.target_out_degree);
      nd.rec.adj.clear();
      for (const nbr& x : nd.nbrs) {
        if (!order_less(v, nd.rec.order_rank, x.id, x.rank)) continue;
        const auto it = old_dplus.find(x.id);
        // A target absent from the old record flipped orientation or is a
        // new edge -- in both cases that target's own out-set changed (or
        // the edge is recorded in round_new_nbrs_), so its I5 report
        // overwrites the placeholder below.
        const std::uint64_t dp = it == old_dplus.end() ? 0 : it->second;
        nd.rec.adj.push_back(entry_type{x.id, x.rank, dp, x.emeta, x.vmeta});
      }
      std::sort(nd.rec.adj.begin(), nd.rec.adj.end(),
                [](const entry_type& a, const entry_type& b) { return a.key() < b.key(); });
      bool changed = nd.rec.adj.size() != old_dplus.size();
      if (!changed) {
        for (const entry_type& e : nd.rec.adj) {
          if (!old_dplus.contains(e.target)) {
            changed = true;
            break;
          }
        }
      }
      if (changed) dplus_changed.push_back(v);
    }

    // I5: builder-P6 twin, but targeted -- d+ flows only where it may have
    // changed.  Every record whose out-set changed reports to all its
    // in-neighbors; additionally each endpoint of a round-new edge reports
    // to that specific neighbor (whose placeholder, if the edge oriented
    // toward it, awaits the value -- a report only overwrites, so the
    // occasional double send is harmless).  Rank-patched records keep
    // their d+ and owe nothing.
    for (const vertex_id v : dplus_changed) {
      const node& nd = nodes_.at(v);
      for (const nbr& x : nd.nbrs) {
        if (order_less(x.id, x.rank, v, nd.rec.order_rank)) {
          dplus_.push(owner(x.id), x.id, v, nd.rec.order_rank, nd.rec.out_degree());
        }
      }
    }
    for (const auto& [v, x] : round_new_) {
      const node& nd = nodes_.at(v);
      dplus_.push(owner(x), x, v, nd.rec.order_rank, nd.rec.out_degree());
    }
    round_new_.clear();
    dplus_.flush();
    comm_->barrier();
    {
      auto& [to, from, from_rank, dplus] = dplus_.inbox();
      for (std::size_t i = 0; i < to.size(); ++i) {
        auto& adj = nodes_.at(to[i]).rec.adj;
        const auto it = std::lower_bound(
            adj.begin(), adj.end(), make_order_key(from[i], from_rank[i]),
            [](const entry_type& e, const order_key& k) { return e.key() < k; });
        if (it != adj.end() && it->target == from[i]) it->target_out_degree = dplus[i];
      }
    }
    dplus_.release_inbox();
    const std::uint64_t rebuilt = dirty_adj_.size();
    dirty_.clear();
    dirty_adj_.clear();
    return rebuilt;
  }

  /// Elementwise-sum all-reduce of a stats vector: one collective per
  /// mutation instead of one per counter.
  [[nodiscard]] std::array<std::uint64_t, 7> reduce_stats(
      const std::array<std::uint64_t, 7>& local) {
    return comm_->all_reduce(local, [](const std::array<std::uint64_t, 7>& a,
                                       const std::array<std::uint64_t, 7>& b) {
      std::array<std::uint64_t, 7> r{};
      for (std::size_t i = 0; i < r.size(); ++i) r[i] = a[i] + b[i];
      return r;
    });
  }

  /// Deterministically advance the content id after a mutating collective
  /// (`changed` is a global count, identical everywhere).
  void finish_mutation(std::uint64_t changed) {
    ++batches_;
    detail::fnv1a_accumulator acc;
    acc.mix_u64(sid_);
    acc.mix_u64(batches_);
    acc.mix_u64(changed);
    sid_ = acc.h != 0 ? acc.h : 1;
  }

  /// I3b: apply one neighbor's (id, rank, meta) report at receiver `v`.
  void apply_nbr_info(vertex_id v, vertex_id from, std::uint64_t from_rank,
                      const VMeta& from_meta) {
    node* nd = find_node(v);
    if (nd == nullptr) return;  // vertex expired concurrently: nothing to patch
    const auto it = std::lower_bound(
        nd->nbrs.begin(), nd->nbrs.end(), from,
        [](const nbr& x, vertex_id key) { return x.id < key; });
    if (it == nd->nbrs.end() || it->id != from) return;  // edge expired
    const std::uint64_t old_rank = it->rank;
    it->rank = from_rank;
    it->vmeta = from_meta;
    if (dirty_adj_.contains(v)) return;  // full rebuild already scheduled
    const std::uint64_t rank_v = nd->rec.order_rank;
    const bool was_out = order_less(v, rank_v, from, old_rank);
    const bool now_out = order_less(v, rank_v, from, from_rank);
    if (was_out != now_out) {
      // Orientation flip: v's Adjm+ membership changes -- rebuild in I4.
      dirty_adj_.insert(v);
      return;
    }
    // Fast path: the edge keeps its orientation.  If `from` sits in v's
    // record, slide its entry to the new <+ position in place (O(deg)
    // rotate, record stays key-sorted); v's out-degree is unchanged, so
    // no I5 report is owed and no rebuild happens.
    if (now_out) patch_adj_entry(nd->rec, from, old_rank, from_rank, from_meta);
  }

  struct pair_key_hash {
    [[nodiscard]] std::size_t operator()(const std::pair<vertex_id, vertex_id>& p) const noexcept {
      return static_cast<std::size_t>(
          serial::splitmix64(serial::splitmix64(p.first) ^ p.second));
    }
  };

  comm::communicator* comm_;
  ordering_policy ordering_;
  /// The rounds' exchanges, registered once per overlay: (vertex, neighbor,
  /// edge meta) for I1 and I2, (receiver, sender, sender rank, sender meta)
  /// for I3b, and (receiver, sender, sender rank, sender d+) for I5.
  comm::column_exchange<vertex_id, vertex_id, EMeta> edges_;
  comm::column_exchange<vertex_id, vertex_id, std::uint64_t, VMeta> info_;
  comm::column_exchange<vertex_id, vertex_id, std::uint64_t, std::uint64_t> dplus_;
  node_map nodes_;
  std::vector<typename node_map::value_type*> slots_;  ///< slot -> (id, node)
  std::unordered_set<vertex_id> dirty_;      ///< structural change this round
  std::unordered_set<vertex_id> dirty_adj_;  ///< records needing re-orientation
  std::vector<vertex_id> fresh_;             ///< vertices first seen this round
  /// (endpoint, new neighbor) for each half of a round-new edge: the
  /// targets of the endpoints' extra (targeted) I5 d+ reports.
  std::vector<std::pair<vertex_id, vertex_id>> round_new_;
  std::uint64_t sid_ = 1;
  std::uint64_t batches_ = 0;
};

/// Deduction guide: `graph::overlay ov(frozen);`.
template <typename VMeta, typename EMeta>
overlay(frozen_dodgr<VMeta, EMeta>&) -> overlay<VMeta, EMeta>;

}  // namespace tripoll::graph
