// callbacks.hpp -- prebuilt survey callbacks, their contexts, and their
// declared minimal wire projections.
//
// Each of the paper's example analyses is a (callback, context) pair for the
// survey engine:
//   * Alg. 2  -- global triangle counting (count_callback)
//   * Alg. 3  -- max-edge-label distribution over label-distinct triangles
//   * Alg. 4  -- Reddit triangle closure times (log2-binned joint histogram)
//   * Sec. 5.8 -- FQDN 3-tuple survey on string vertex metadata
//   * Sec. 5.9 -- degree-triple survey (the "nontrivial metadata" workload)
//   * local counting -- per-vertex/per-edge participation counts, the truss /
//     clustering-coefficient building block the paper cites
//
// Every context is sliceable (core/plan.hpp): `fork()` makes the empty slice
// a closing thread fires into and `join()` folds it back on the owning
// thread, so every analysis fires on every worker thread.  The counting-set
// analyses count into a slice's detached tally, which join() hands to the
// rank's counting set (comm/counting_set.hpp).
//
// Every callback additionally DECLARES the minimal sender-side projections
// it needs (`vertex_projection` / `edge_projection` nested aliases): what
// must cross the wire for the analysis to run.  `plan_for(g, cb, ctx)`
// builds a survey plan preconfigured with those projections, so e.g. a
// closure-time survey over rich edge structs ships 8-byte timestamps and a
// plain count ships no metadata at all.  Passing a callback through the
// legacy `triangle_survey` wrapper instead runs it with identity
// projections (full metadata on the wire) -- results are identical either
// way, only the traffic differs.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "comm/counting_set.hpp"
#include "core/survey.hpp"

namespace tripoll::callbacks {

// --- reusable projections ---------------------------------------------------------

/// Edge metadata reduced to its uint64 timestamp (anything explicitly
/// convertible).  Rich edge structs that expose `timestamp()` or a
/// conversion ship 8 bytes instead of the struct.
struct timestamp_projection {
  template <typename T>
  [[nodiscard]] std::uint64_t operator()(const T& meta) const noexcept {
    return static_cast<std::uint64_t>(meta);
  }
};

/// Vertex metadata reduced to a uint64 degree-like scalar.
struct degree_projection {
  template <typename T>
  [[nodiscard]] std::uint64_t operator()(const T& meta) const noexcept {
    return static_cast<std::uint64_t>(meta);
  }
};

/// Survey plan preconfigured with `Cb`'s declared minimal projections: the
/// traversal ships exactly what the analysis reads.  Chain further `.add`s
/// onto the result to fuse more callbacks into the same traversal (they
/// must be satisfied by the same projections).  `g` is a frozen CSR graph
/// or an overlay (for a graph frozen through the same projections the
/// projections below become cheap identities over the already-projected
/// arenas).
template <typename Cb, typename Graph, typename Context>
[[nodiscard]] auto plan_for(Graph& g, Cb cb, Context& ctx) {
  return tripoll::survey(g)
      .project_vertex(typename Cb::vertex_projection{})
      .project_edge(typename Cb::edge_projection{})
      .add(std::move(cb), ctx);
}

/// `plan_for`, but registers the callback through `add_reduced`, the
/// shorthand for value contexts: slices are default-constructed and
/// `reduce` folds them back into `ctx` at phase end (docs/THREADING.md);
/// reduce_scope::global also all_reduces `ctx` across ranks.
template <reduce_scope Scope = reduce_scope::threads, typename Cb, typename Graph,
          typename Context, typename Reduce>
[[nodiscard]] auto plan_for_reduced(Graph& g, Cb cb, Context& ctx, Reduce reduce) {
  return tripoll::survey(g)
      .project_vertex(typename Cb::vertex_projection{})
      .project_edge(typename Cb::edge_projection{})
      .template add_reduced<Scope>(std::move(cb), ctx, std::move(reduce));
}

// --- Alg. 2: triangle counting ---------------------------------------------------

struct count_context {
  std::uint64_t triangles = 0;

  [[nodiscard]] count_context fork() const { return {}; }
  void join(count_context&& slice) { triangles += slice.triangles; }

  /// Collective: the paper's final All_Reduce over rank-local counts.
  [[nodiscard]] std::uint64_t global_count(comm::communicator& c) const {
    return c.all_reduce_sum(triangles);
  }
};

struct count_callback {
  using vertex_projection = drop_projection;  ///< counting reads no metadata
  using edge_projection = drop_projection;

  template <typename View>
  void operator()(const View& /*view*/, count_context& ctx) const {
    ++ctx.triangles;
  }
};

/// Fold for `plan_for_reduced`/`add_reduced` over count contexts: counting
/// is a plain sum, so per-thread (or, under reduce_scope::global, per-rank)
/// slices merge by adding tallies.
struct count_reduce {
  [[nodiscard]] count_context operator()(const count_context& a,
                                         const count_context& b) const noexcept {
    return count_context{a.triangles + b.triangles};
  }
};

// --- counting-set contexts ---------------------------------------------------------

/// Context of a counting-set analysis: the registered context points at a
/// collectively-constructed counting set; a slice also carries the tally its
/// thread counts into, which join() folds into the set.
template <typename Key>
struct counting_set_context {
  comm::counting_set<Key>* counters = nullptr;
  typename comm::counting_set<Key>::tally tally{};

  [[nodiscard]] counting_set_context fork() const { return {counters, counters->fork()}; }
  void join(counting_set_context&& slice) { counters->join(std::move(slice.tally)); }
};

// --- Alg. 3: max edge label distribution ------------------------------------------

/// Keyed by edge label.  Requires label-like (ordered, hashable) metadata.
template <typename EdgeLabel>
using max_edge_label_context = counting_set_context<EdgeLabel>;

struct max_edge_label_callback {
  using vertex_projection = identity_projection;  ///< label distinctness test
  using edge_projection = identity_projection;    ///< the surveyed labels

  template <typename View, typename EdgeLabel>
  void operator()(const View& view, max_edge_label_context<EdgeLabel>& ctx) const {
    // Only triangles whose three vertex labels are pairwise distinct.
    if (view.meta_p == view.meta_q || view.meta_q == view.meta_r ||
        view.meta_p == view.meta_r) {
      return;
    }
    const EdgeLabel max_edge =
        std::max({view.meta_pq, view.meta_pr, view.meta_qr});
    ctx.tally.increment(max_edge);
  }
};

// --- Alg. 4: triangle closure times -------------------------------------------------

/// ceil(log2(dt)) binning used by the paper; dt == 0 maps to bin 0.
[[nodiscard]] inline std::uint32_t log2_bin(std::uint64_t dt) noexcept {
  if (dt <= 1) return 0;
  const int highest = 63 - __builtin_clzll(dt);
  const bool exact = (dt & (dt - 1)) == 0;
  return static_cast<std::uint32_t>(exact ? highest : highest + 1);
}

/// Joint (open, close) histogram key.
using closure_bin = std::pair<std::uint32_t, std::uint32_t>;

/// Sort-free (open, close) bin of three edge timestamps: min/max scans plus
/// an overflow-proof xor recover the middle element, with no per-triangle
/// array materialization and std::sort.
[[nodiscard]] inline closure_bin closure_bin_of(std::uint64_t a, std::uint64_t b,
                                                std::uint64_t c) noexcept {
  const std::uint64_t lo = std::min({a, b, c});
  const std::uint64_t hi = std::max({a, b, c});
  const std::uint64_t mid = a ^ b ^ c ^ lo ^ hi;  // the remaining element
  const std::uint64_t open_dt = mid - lo;   // wedge opening time
  const std::uint64_t close_dt = hi - lo;   // triangle closing time
  return closure_bin{log2_bin(open_dt), log2_bin(close_dt)};
}

using closure_time_context = counting_set_context<closure_bin>;

/// Edge metadata must be (convertible to) a uint64 timestamp; pair with the
/// declared `timestamp_projection` (plan_for) so rich edge structs ship 8
/// wire bytes each.  The per-edge projection extracted the timestamp once
/// on the sender; `closure_bin_of` orders the three sort-free.
struct closure_time_callback {
  using vertex_projection = drop_projection;  ///< only edge times are read
  using edge_projection = timestamp_projection;

  template <typename View>
  void operator()(const View& view, closure_time_context& ctx) const {
    ctx.tally.increment(
        closure_bin_of(static_cast<std::uint64_t>(view.meta_pq),
                       static_cast<std::uint64_t>(view.meta_pr),
                       static_cast<std::uint64_t>(view.meta_qr)));
  }
};

// --- Sec. 5.9: degree-triple survey ---------------------------------------------------

using degree_triple = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

using degree_triple_context = counting_set_context<degree_triple>;

/// Vertex metadata must be (convertible to) the vertex degree.
struct degree_triple_callback {
  using vertex_projection = degree_projection;  ///< 8 bytes per vertex meta
  using edge_projection = drop_projection;

  template <typename View>
  void operator()(const View& view, degree_triple_context& ctx) const {
    ctx.tally.increment(
        degree_triple{log2_bin(static_cast<std::uint64_t>(view.meta_p)),
                      log2_bin(static_cast<std::uint64_t>(view.meta_q)),
                      log2_bin(static_cast<std::uint64_t>(view.meta_r))});
  }
};

// --- Sec. 5.8: FQDN 3-tuple survey ----------------------------------------------------

/// Key: the three FQDNs of a triangle, sorted so the tuple is canonical.
using fqdn_tuple = std::tuple<std::string, std::string, std::string>;

struct fqdn_tuple_context {
  comm::counting_set<fqdn_tuple>* counters = nullptr;
  std::uint64_t distinct_fqdn_triangles = 0;  ///< rank-local tally
  comm::counting_set<fqdn_tuple>::tally tally{};

  [[nodiscard]] fqdn_tuple_context fork() const { return {counters, 0, counters->fork()}; }
  void join(fqdn_tuple_context&& slice) {
    distinct_fqdn_triangles += slice.distinct_fqdn_triangles;
    counters->join(std::move(slice.tally));
  }
};

/// Vertex metadata must be a string (the FQDN).  Counts only triangles whose
/// three FQDNs are pairwise distinct, like the paper's analysis.  String
/// metadata reaches the callback as std::string_view into the drained
/// payload (the engine never copies received FQDNs); only the surviving
/// canonical tuples are materialized as owning strings.
struct fqdn_tuple_callback {
  using vertex_projection = identity_projection;  ///< the FQDNs themselves
  using edge_projection = drop_projection;

  template <typename View>
  void operator()(const View& view, fqdn_tuple_context& ctx) const {
    const std::string_view a = view.meta_p;
    const std::string_view b = view.meta_q;
    const std::string_view c = view.meta_r;
    if (a == b || b == c || a == c) return;
    ++ctx.distinct_fqdn_triangles;
    std::array<std::string_view, 3> sorted{a, b, c};
    std::sort(sorted.begin(), sorted.end());
    ctx.tally.increment(
        fqdn_tuple{std::string(sorted[0]), std::string(sorted[1]), std::string(sorted[2])});
  }
};

// --- full enumeration to file (Sec. 4.5 output mode) ---------------------------------

/// "Writing information on individual triangles out to file": each rank
/// owns a private sink, so enumeration needs no cross-rank coordination.
/// The caller opens/closes the stream (one file per rank is the usual
/// pattern).  Slices buffer their rows; join() writes them on the owning
/// thread, so no worker does file I/O.
struct enumerate_context {
  std::FILE* out = nullptr;
  std::uint64_t rows = 0;
  std::string pending{};  ///< a slice's buffered rows

  [[nodiscard]] enumerate_context fork() const { return {out}; }
  void join(enumerate_context&& slice) {
    std::fwrite(slice.pending.data(), 1, slice.pending.size(), out);
    rows += slice.rows;
  }
};

struct enumerate_callback {
  using vertex_projection = drop_projection;  ///< ids only
  using edge_projection = drop_projection;

  template <typename View>
  void operator()(const View& view, enumerate_context& ctx) const {
    char row[72];
    const int n = std::snprintf(row, sizeof row, "%llu %llu %llu\n",
                                static_cast<unsigned long long>(view.p),
                                static_cast<unsigned long long>(view.q),
                                static_cast<unsigned long long>(view.r));
    ctx.pending.append(row, static_cast<std::size_t>(n));
    ++ctx.rows;
  }
};

// --- local participation counts (truss / clustering-coefficient primitive) -----------

/// Per-vertex triangle participation: the callback credits all three corner
/// vertices through a distributed counting set keyed by vertex id.
using local_count_context = counting_set_context<graph::vertex_id>;

struct local_count_callback {
  using vertex_projection = drop_projection;  ///< ids only
  using edge_projection = drop_projection;

  template <typename View>
  void operator()(const View& view, local_count_context& ctx) const {
    ctx.tally.increment(view.p);
    ctx.tally.increment(view.q);
    ctx.tally.increment(view.r);
  }
};

}  // namespace tripoll::callbacks
