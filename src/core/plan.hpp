// plan.hpp -- the declarative survey-plan API (what a traversal ships, and
// who consumes it).
//
// A plan is built fluently and describes a survey BEFORE the engine runs:
//
//   auto res = tripoll::survey(g)
//                  .project_vertex([](const profile& p) { return p.degree; })
//                  .project_edge([](const interaction& e) { return e.when; })
//                  .add(closure_time_callback{}, closure_ctx)
//                  .add(count_callback{}, count_ctx)
//                  .run({survey_mode::push_pull});
//
// Two properties fall out of the plan shape:
//
//   * Projections run SENDER-side.  The wedge-batch and pulled-adjacency
//     wire types are the *projected* metadata types, so a callback that
//     reads one 8-byte field of a rich struct ships 8 bytes per element,
//     not the struct (paper Sec. 5.9: metadata on the wire is the headline
//     cost of nontrivial surveys).  Projecting to `graph::none` ships zero
//     metadata bytes.
//   * All callbacks registered on one plan are FUSED into a single
//     dry-run/push/pull traversal: one pass over |W+|, one fan-out per
//     discovered triangle.  N analyses over the same graph pay the wedge
//     traffic once instead of N times.
//
// `run()` returns the shared traffic totals plus a per-callback
// `survey_result` slice.  Callbacks are carried in the plan BY VALUE, so
// small stateful functors (e.g. a threshold filter) are allowed; a
// bool-returning callback reports whether it fired, which its slice's
// `triangles_found` reflects.
//
// Thread-safety contract (full statement: docs/THREADING.md): a plan, its
// callbacks and its contexts are rank-local.  With survey_options::threads
// == 1 the engine invokes callbacks only from the owning rank's thread.
// With threads > 1, `.add()` entries still fire only on the owning thread;
// `.add_reduced()` entries may fire on worker threads, each into its own
// default-constructed per-thread context slice, merged into the registered
// context by the declared reduction at the end of the run (and, for
// reduce_scope::global, all_reduced across ranks).  Contexts are held by
// pointer and must outlive `run()`.
//
// This header defines the plan, result and view types; the engine that
// executes a plan lives in core/survey.hpp (include that to call `.run()`).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "graph/types.hpp"

namespace tripoll {

/// Execution strategy for a survey.
enum class survey_mode {
  push_only,  ///< Alg. 1: always push adjacency suffixes
  push_pull,  ///< Sec. 4.4: dry-run + per-(rank,vertex) push-vs-pull choice
};

struct survey_options {
  survey_mode mode = survey_mode::push_pull;
  /// Worker threads per rank for the traversal, over frozen graphs and
  /// overlays alike.  0 = read TRIPOLL_THREADS from the environment,
  /// defaulting to 1.  Results -- triangle counts,
  /// volume_bytes, messages, per-callback fire counts -- are bit-identical
  /// across thread counts; see docs/THREADING.md.
  int threads = 0;
  /// Pin the engine's threads round-robin over hardware threads (NUMA
  /// locality for the arena-chunk scans).  false additionally consults the
  /// TRIPOLL_PIN environment variable (unset/"0" means unpinned); a no-op
  /// on platforms without thread affinity.  The owning (calling) thread is
  /// never pinned -- only spawned workers.  See docs/THREADING.md.
  bool pin_threads = false;
};

/// How an `add_reduced` context is combined at the end of a run.
enum class reduce_scope {
  threads,  ///< merge per-thread slices into the registered context only
  global,   ///< ...then all_reduce the context across ranks too
};

/// Wall time and measured traffic of one survey phase.
struct phase_metrics {
  double seconds = 0.0;            ///< max over ranks
  std::uint64_t volume_bytes = 0;  ///< remote bytes, summed over ranks
  std::uint64_t messages = 0;      ///< logical RPCs, summed over ranks
};

/// Collective result of a survey traversal (identical on every rank).
struct survey_result {
  phase_metrics dry_run;  ///< push_pull only: proposal/decision pass
  phase_metrics push;     ///< wedge pushing (the only phase of push_only)
  phase_metrics pull;     ///< push_pull only: coalesced adjacency pulls
  phase_metrics total;

  std::uint64_t pulls_granted = 0;      ///< (rank, q) pull grants, global
  std::uint64_t push_batches = 0;       ///< wedge-batch messages, global
  std::uint64_t wedge_candidates = 0;   ///< candidate r vertices examined
  std::uint64_t triangles_found = 0;    ///< engine-side cross-check counter
  std::uint64_t proposals_filtered = 0; ///< hopeless pull proposals never sent
  std::uint64_t bitmap_batches = 0;     ///< batches closed via hub bitmap probe
  std::uint64_t list_batches = 0;       ///< batches closed via merge/gallop

  [[nodiscard]] double pulls_per_rank(int nranks) const noexcept {
    return nranks > 0 ? static_cast<double>(pulls_granted) / nranks : 0.0;
  }
};

/// Result of running a plan with N callbacks: the shared traversal metrics
/// plus how often each callback fired (globally).  `slice(i)` renders
/// callback i's view of the run as a classic survey_result -- the traffic
/// columns are the shared totals, `triangles_found` is that callback's fire
/// count (== the engine's triangle count for unconditional callbacks, fewer
/// for bool-returning filters).
template <std::size_t N>
struct plan_result {
  survey_result total;                         ///< shared traversal metrics
  std::array<std::uint64_t, N> invocations{};  ///< per-callback fires, global

  [[nodiscard]] survey_result slice(std::size_t i) const {
    survey_result s = total;
    s.triangles_found = invocations[i];
    return s;
  }
};

/// How a triangle_view member refers to metadata of wire type T: string
/// views are held by value (they already are references into the drained
/// payload), everything else by const reference into rank-local storage or
/// the received message.
template <typename T>
using meta_ref =
    std::conditional_t<std::is_same_v<T, std::string_view>, std::string_view, const T&>;

/// The six pieces of (projected) metadata of a discovered triangle Δpqr,
/// plus the vertex ids.  Members are valid only for the duration of the
/// callback.  For graphs with std::string metadata the members arrive as
/// std::string_view pointing into the drained payload -- copy out to keep.
template <typename VertexMeta, typename EdgeMeta>
struct triangle_view {
  graph::vertex_id p, q, r;
  meta_ref<VertexMeta> meta_p;
  meta_ref<VertexMeta> meta_q;
  meta_ref<VertexMeta> meta_r;
  meta_ref<EdgeMeta> meta_pq;
  meta_ref<EdgeMeta> meta_pr;
  meta_ref<EdgeMeta> meta_qr;
};

/// Default projection: ship the stored metadata unchanged.
struct identity_projection {
  template <typename T>
  [[nodiscard]] const T& operator()(const T& v) const noexcept {
    return v;
  }
};

/// Projection that strips metadata entirely.  graph::none is empty, so the
/// projected field occupies zero wire bytes -- a plain counting survey over
/// a rich-metadata graph ships exactly what a metadata-free graph would.
struct drop_projection {
  template <typename T>
  [[nodiscard]] graph::none operator()(const T&) const noexcept {
    return {};
  }
};

namespace core::detail {

/// Sender-side time-window predicate of a plan (plan.window(t0, t1)):
/// half-open [t0, t1) over the STORED edge metadata read as a timestamp.
/// Inactive by default; carried by value through every chaining call.
struct plan_window {
  bool active = false;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;

  [[nodiscard]] bool admits(std::uint64_t ts) const noexcept {
    return !active || (ts >= t0 && ts < t1);
  }
};

/// Receive-side wire type of a projected value: owning strings travel as
/// length+bytes but DESERIALIZE as std::string_view into the drained
/// payload (no copy); everything else round-trips as itself.
template <typename P>
struct wire_type {
  using type = P;
};
template <>
struct wire_type<std::string> {
  using type = std::string_view;
};
template <typename P>
using wire_type_t = typename wire_type<P>::type;

/// Shared callback dispatch: cb(comm, view, ctx) or cb(view, ctx), each
/// either bool-returning ("did it fire?") or void (always fires).
template <typename Callback, typename View, typename Context>
bool dispatch_callback(Callback& callback, comm::communicator& c, const View& view,
                       Context& context) {
  if constexpr (std::is_invocable_v<Callback&, comm::communicator&, const View&,
                                    Context&>) {
    if constexpr (std::is_same_v<std::invoke_result_t<Callback&, comm::communicator&,
                                                      const View&, Context&>,
                                 bool>) {
      return callback(c, view, context);
    } else {
      callback(c, view, context);
      return true;
    }
  } else {
    static_assert(std::is_invocable_v<Callback&, const View&, Context&>,
                  "survey callback must be callable as cb(view, ctx) or "
                  "cb(comm, view, ctx)");
    if constexpr (std::is_same_v<std::invoke_result_t<Callback&, const View&, Context&>,
                                 bool>) {
      return callback(view, context);
    } else {
      callback(view, context);
      return true;
    }
  }
}

/// One (callback, context) registration of a plan.
template <typename Callback, typename Context>
struct callback_entry {
  static constexpr bool reduced = false;
  using callback_type = Callback;
  using context_type = Context;
  Callback callback;
  Context* context;

  /// Invoke on one triangle; returns whether the callback "fired" (a
  /// bool-returning callback can decline, e.g. a threshold filter).
  template <typename View>
  bool invoke(comm::communicator& c, const View& view) {
    return dispatch_callback(callback, c, view, *context);
  }
};

/// One `.add_reduced()` registration: a callback plus the reduction that
/// folds per-thread context slices (and, for reduce_scope::global, the
/// per-rank contexts) back into the registered context.
template <typename Callback, typename Context, typename Reduce, reduce_scope Scope>
struct reduced_callback_entry {
  static constexpr bool reduced = true;
  static constexpr reduce_scope scope = Scope;
  using callback_type = Callback;
  using context_type = Context;

  Callback callback;
  Context* context;
  Reduce reduce;

  template <typename View>
  bool invoke(comm::communicator& c, const View& view) {
    return dispatch_callback(callback, c, view, *context);
  }

  /// Worker-thread fire into a per-thread slice: no communicator (workers
  /// must never touch comm state; see docs/THREADING.md).
  template <typename View>
  bool invoke_on(const View& view, Context& slice) {
    if constexpr (std::is_same_v<std::invoke_result_t<Callback&, const View&, Context&>,
                                 bool>) {
      return callback(view, slice);
    } else {
      callback(view, slice);
      return true;
    }
  }
};

/// A callback's self-declared minimal projections (core/callbacks.hpp's
/// `using vertex_projection = ...` convention).  Callbacks that declare
/// nothing conservatively require identity (ship everything).
template <typename Callback, typename = void>
struct declared_vertex_projection {
  using type = identity_projection;
};
template <typename Callback>
struct declared_vertex_projection<Callback, std::void_t<typename Callback::vertex_projection>> {
  using type = typename Callback::vertex_projection;
};
template <typename Callback, typename = void>
struct declared_edge_projection {
  using type = identity_projection;
};
template <typename Callback>
struct declared_edge_projection<Callback, std::void_t<typename Callback::edge_projection>> {
  using type = typename Callback::edge_projection;
};

/// Least-upper-bound of two declared projections for a FUSED traversal: the
/// wire must carry enough for both callbacks.  Equal demands collapse; drop
/// (needs nothing) defers to the other side; two distinct non-trivial
/// demands widen to identity -- there is one wire type per metadata kind,
/// so the only projection satisfying both is the full value.
template <typename A, typename B>
struct proj_union {
  using type = identity_projection;
};
template <typename A>
struct proj_union<A, A> {
  using type = A;
};
template <typename A>
struct proj_union<drop_projection, A> {
  using type = A;
};
template <typename A>
struct proj_union<A, drop_projection> {
  using type = A;
};
template <>
struct proj_union<drop_projection, drop_projection> {
  using type = drop_projection;
};

/// Fold proj_union over every callback of a plan.
template <typename... Ps>
struct proj_fold {
  using type = drop_projection;  // no callbacks: nothing demanded
};
template <typename P>
struct proj_fold<P> {
  using type = P;
};
template <typename A, typename B, typename... Rest>
struct proj_fold<A, B, Rest...> : proj_fold<typename proj_union<A, B>::type, Rest...> {};

/// Is this entry eligible to fire on worker threads for triangle views of
/// type View?  Plain `.add()` entries never are (no declared reduction);
/// reduced entries are when their context can be default-constructed as a
/// per-thread slice and the callback runs without a communicator.
template <typename Entry, typename View>
inline constexpr bool entry_parallel_ready = false;

template <typename Callback, typename Context, typename Reduce, reduce_scope Scope,
          typename View>
inline constexpr bool
    entry_parallel_ready<reduced_callback_entry<Callback, Context, Reduce, Scope>, View> =
        std::is_default_constructible_v<Context> &&
        std::is_invocable_v<Callback&, const View&, Context&>;

/// Per-thread slice storage for one entry: the context type for reduced
/// entries, an empty placeholder for plain ones (never touched -- a plan
/// with any plain entry is not parallel-fire capable).
template <typename Entry>
struct slice_of {
  struct type {};
};
template <typename Callback, typename Context, typename Reduce, reduce_scope Scope>
struct slice_of<reduced_callback_entry<Callback, Context, Reduce, Scope>> {
  using type = Context;
};

// Defined in core/survey.hpp (constructs the engine and runs it); declared
// here so survey_plan::run() can be written against it.
template <typename Graph, typename Plan>
[[nodiscard]] plan_result<Plan::num_callbacks> run_plan(Graph& g, Plan& plan,
                                                        survey_options opts);

}  // namespace core::detail

/// A composable, typed survey description: the graph, a sender-side
/// projection per metadata kind, and any number of (callback, context)
/// pairs fused into one traversal.  Built through `tripoll::survey(g)`.
/// `Graph` is any graph exposing the metadata types; running the plan needs
/// a slot-addressed one (core/survey.hpp: graph::frozen_dodgr or
/// graph::overlay).  A plan over the map-form `graph::dodgr` only feeds
/// `graph::freeze(plan)`.
template <typename Graph, typename VProj = identity_projection,
          typename EProj = identity_projection, typename... Entries>
class survey_plan {
 public:
  using graph_type = Graph;
  using VertexMeta = typename Graph::vertex_meta_type;
  using EdgeMeta = typename Graph::edge_meta_type;
  using vertex_projection_type = VProj;
  using edge_projection_type = EProj;

  static_assert(std::is_invocable_v<const VProj&, const VertexMeta&>,
                "vertex projection must be callable on const VertexMeta&");
  static_assert(std::is_invocable_v<const EProj&, const EdgeMeta&>,
                "edge projection must be callable on const EdgeMeta&");

  /// What the projections produce (and, modulo the string -> string_view
  /// receive mapping, what travels on the wire).
  using projected_vertex_type =
      std::remove_cvref_t<std::invoke_result_t<const VProj&, const VertexMeta&>>;
  using projected_edge_type =
      std::remove_cvref_t<std::invoke_result_t<const EProj&, const EdgeMeta&>>;

  static constexpr std::size_t num_callbacks = sizeof...(Entries);

  survey_plan(graph_type& g, VProj vproj, EProj eproj, std::tuple<Entries...> entries,
              core::detail::plan_window window = {})
      : graph_(&g),
        vproj_(std::move(vproj)),
        eproj_(std::move(eproj)),
        entries_(std::move(entries)),
        window_(window) {}

  /// Replace the vertex-metadata projection.  Applied sender-side; the
  /// wedge/pull wire types carry the projected type.
  template <typename F>
  [[nodiscard]] auto project_vertex(F fn) const {
    return survey_plan<Graph, F, EProj, Entries...>(*graph_, std::move(fn), eproj_,
                                                    entries_, window_);
  }

  /// Replace the edge-metadata projection (see project_vertex).
  template <typename F>
  [[nodiscard]] auto project_edge(F fn) const {
    return survey_plan<Graph, VProj, F, Entries...>(*graph_, vproj_, std::move(fn),
                                                    entries_, window_);
  }

  /// Restrict the survey to edges whose STORED metadata, read as a
  /// timestamp, falls in the half-open window [t0, t1).  The filter is
  /// applied at wedge-GENERATION time (sender-side, before projection), so
  /// wedge batches, pulled adjacencies and the wire volume all shrink with
  /// the window; closing edges are filtered at the intersection.  A
  /// triangle survives iff all three of its edges are in-window (SAM's
  /// isExpired rule, PartialTriangle machinery).  Requires the graph's
  /// edge metadata to convert to std::uint64_t.
  [[nodiscard]] survey_plan window(std::uint64_t t0, std::uint64_t t1) const {
    static_assert(std::is_convertible_v<EdgeMeta, std::uint64_t>,
                  "plan.window(t0, t1) needs edge metadata readable as a "
                  "uint64_t timestamp (e.g. a u64 edge-meta graph); "
                  "metadata-free graphs cannot be windowed");
    survey_plan p(*this);
    p.window_ = core::detail::plan_window{true, t0, t1};
    return p;
  }

  /// What the registered callbacks jointly demand on the wire: the
  /// proj_union fold of every callback's declared vertex/edge projection
  /// (core/callbacks.hpp convention; undeclared counts as identity).
  using inferred_vertex_projection = typename core::detail::proj_fold<
      typename core::detail::declared_vertex_projection<
          typename Entries::callback_type>::type...>::type;
  using inferred_edge_projection = typename core::detail::proj_fold<
      typename core::detail::declared_edge_projection<
          typename Entries::callback_type>::type...>::type;

  /// Replace both projections with the union of what the registered
  /// callbacks declare they need: equal demands collapse, drop defers,
  /// distinct non-trivial demands widen to identity.  Call AFTER the last
  /// `.add()`; explicit `.project_*()` calls afterwards still override.
  /// Opt-in (never applied implicitly by run()) so a plan's wire volume
  /// only changes when the caller asks for inference.
  [[nodiscard]] auto infer_projections() const {
    using VP = inferred_vertex_projection;
    using EP = inferred_edge_projection;
    return survey_plan<Graph, VP, EP, Entries...>(*graph_, VP{}, EP{}, entries_,
                                                  window_);
  }

  /// Register one (callback, context) pair.  The callback is stored by
  /// value (small stateful functors welcome); `context` is held by pointer
  /// and must outlive run().
  template <typename Callback, typename Context>
  [[nodiscard]] auto add(Callback callback, Context& context) const {
    using entry = core::detail::callback_entry<Callback, Context>;
    return survey_plan<Graph, VProj, EProj, Entries..., entry>(
        *graph_, vproj_, eproj_,
        std::tuple_cat(entries_,
                       std::make_tuple(entry{std::move(callback), &context})),
        window_);
  }

  /// Register a (callback, context) pair WITH a declared reduction over
  /// context state.  `reduce` must be a stateless binary op
  /// `Context(const Context&, const Context&)`.  Two things follow:
  ///
  ///   * parallel traversal: if Context is default-constructible and the
  ///     callback runs as cb(view, ctx) (no communicator), worker threads
  ///     fire into per-thread slices that `reduce` folds into `context` by
  ///     the end of run() (docs/THREADING.md);
  ///   * Scope == reduce_scope::global additionally all_reduces the folded
  ///     context across ranks (even in single-threaded runs), so run()
  ///     returns with `context` already holding the global result -- the
  ///     plan-level twin of count_context::global_count().
  template <reduce_scope Scope = reduce_scope::threads, typename Callback,
            typename Context, typename Reduce>
  [[nodiscard]] auto add_reduced(Callback callback, Context& context,
                                 Reduce reduce) const {
    static_assert(std::is_empty_v<Reduce>,
                  "plan reductions must be stateless (captureless lambda or "
                  "empty functor); global scope runs them through all_reduce");
    using entry = core::detail::reduced_callback_entry<Callback, Context, Reduce, Scope>;
    return survey_plan<Graph, VProj, EProj, Entries..., entry>(
        *graph_, vproj_, eproj_,
        std::tuple_cat(entries_, std::make_tuple(entry{std::move(callback), &context,
                                                       std::move(reduce)})),
        window_);
  }

  /// Collective: execute the plan as one fused traversal.  Requires
  /// core/survey.hpp (the engine) to be included.
  [[nodiscard]] plan_result<num_callbacks> run(survey_options opts = {}) {
    static_assert(num_callbacks >= 1,
                  "a survey plan needs at least one .add(callback, context)");
    return core::detail::run_plan(*graph_, *this, opts);
  }

  // --- engine interface ------------------------------------------------------

  [[nodiscard]] graph_type& graph() const noexcept { return *graph_; }
  [[nodiscard]] const VProj& vertex_proj() const noexcept { return vproj_; }
  [[nodiscard]] const EProj& edge_proj() const noexcept { return eproj_; }
  [[nodiscard]] const core::detail::plan_window& time_window() const noexcept {
    return window_;
  }

  /// Fan one discovered triangle out to every registered callback;
  /// `fired[i]` accumulates the callbacks that actually ran.
  template <typename View>
  void fire(comm::communicator& c, const View& view,
            std::array<std::uint64_t, num_callbacks>& fired) {
    std::apply(
        [&](auto&... entry) {
          std::size_t i = 0;
          ((fired[i] += entry.invoke(c, view) ? 1u : 0u, ++i), ...);
        },
        entries_);
  }

  /// May every entry of this plan fire on a worker thread for views of type
  /// View?  If not, a parallel run still parallelizes the send stages but
  /// funnels every fire through the owning thread.
  template <typename View>
  static constexpr bool parallel_fire_capable =
      (core::detail::entry_parallel_ready<Entries, View> && ...);

  /// One worker thread's context slices, one element per entry (empty
  /// placeholders for plain entries).
  using slice_tuple = std::tuple<typename core::detail::slice_of<Entries>::type...>;

  [[nodiscard]] slice_tuple make_slices() const { return slice_tuple{}; }

  /// Worker-thread fire: every entry fires into its slice, never into the
  /// registered context, and never sees the communicator.  Only
  /// instantiated when parallel_fire_capable<View>.
  template <typename View>
  void fire_slices(const View& view, slice_tuple& slices,
                   std::array<std::uint64_t, num_callbacks>& fired) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((fired[I] +=
        std::get<I>(entries_).invoke_on(view, std::get<I>(slices)) ? 1u : 0u),
       ...);
    }(std::make_index_sequence<num_callbacks>{});
  }

  /// Owning-thread merge point: fold every worker's slices into the
  /// registered contexts, in worker-index order (deterministic for any
  /// reduction; bit-identical across runs for associative+commutative ones).
  void merge_slices(std::vector<slice_tuple>& all_slices) {
    for (auto& slices : all_slices) {
      [&]<std::size_t... I>(std::index_sequence<I...>) {
        (merge_one(std::get<I>(entries_), std::get<I>(slices)), ...);
      }(std::make_index_sequence<num_callbacks>{});
    }
  }

  /// End-of-run hook, called by the engine on EVERY run (any thread count,
  /// any graph): all_reduce the contexts of reduce_scope::global
  /// entries so they return holding globally-reduced state.
  void finish_reductions(comm::communicator& c) {
    std::apply([&](auto&... entry) { (finish_one(c, entry), ...); }, entries_);
  }

 private:
  template <typename Entry, typename Slice>
  static void merge_one(Entry& entry, Slice& slice) {
    if constexpr (Entry::reduced) {
      *entry.context = entry.reduce(std::as_const(*entry.context), std::as_const(slice));
    } else {
      (void)entry;
      (void)slice;
    }
  }

  template <typename Entry>
  static void finish_one(comm::communicator& c, Entry& entry) {
    if constexpr (Entry::reduced) {
      if constexpr (Entry::scope == reduce_scope::global) {
        *entry.context = c.all_reduce(*entry.context, entry.reduce);
      }
    } else {
      (void)c;
      (void)entry;
    }
  }

  graph_type* graph_;
  VProj vproj_;
  EProj eproj_;
  std::tuple<Entries...> entries_;
  core::detail::plan_window window_{};
};

/// Entry point of the plan API: start a survey description over `g` with
/// identity projections and no callbacks yet.  `g` is a frozen
/// `graph::frozen_dodgr` (whose arenas may already hold freeze-time-
/// projected metadata) or a `graph::overlay`; a plan over the map-form
/// `graph::dodgr` can only be passed to `graph::freeze(plan)`.
template <typename Graph>
  requires requires {
    typename Graph::vertex_meta_type;
    typename Graph::edge_meta_type;
    typename Graph::record_type;
  }
[[nodiscard]] auto survey(Graph& g) {
  return survey_plan<Graph>(g, identity_projection{}, identity_projection{},
                            std::tuple<>{});
}

}  // namespace tripoll
