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
// callbacks and its contexts are rank-local.  Every entry fires into a
// SLICE of its context owned by whichever thread closes the batch -- worker
// tasks at threads > 1, the owning thread at threads == 1 -- and at each
// phase end the slices join into the registered context in worker-index
// order, on the owning thread.  `.add()` takes the slicing from the context
// itself (`fork()` / `join()`); `.add_reduced()` slices a value context by
// default construction and joins through the declared reduction (and, for
// reduce_scope::global, all_reduces across ranks).  Contexts are held by
// pointer and must outlive `run()`.
//
// This header defines the plan, result and view types; the engine that
// executes a plan lives in core/survey.hpp (include that to call `.run()`).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

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
  std::uint64_t list_batches = 0;       ///< batches closed via merge/gallop
  /// Always 0: no kernel besides merge/gallop exists.  Kept only for
  /// bench/pipeline's report schema (`intersect.bitmap_*`); a later
  /// benchmark-only change drops it with `intersect.bitmap_*` and
  /// `freeze.hub_vertices` (ROADMAP item 6).
  std::uint64_t bitmap_batches = 0;

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

/// Shared callback dispatch: cb(view, ctx), either bool-returning ("did it
/// fire?") or void (always fires).
template <typename Callback, typename View, typename Context>
bool dispatch_callback(Callback& callback, const View& view, Context& context) {
  static_assert(std::is_invocable_v<Callback&, const View&, Context&>,
                "survey callback must be callable as cb(view, ctx)");
  if constexpr (std::is_same_v<std::invoke_result_t<Callback&, const View&, Context&>,
                               bool>) {
    return callback(view, context);
  } else {
    callback(view, context);
    return true;
  }
}

/// A context `.add()` can slice: `fork()` makes an empty slice on the owning
/// thread (another thread fills it, so it must not write through state it
/// shares with the context) and `join(slice&&)` folds one back.
template <typename C>
concept sliceable_context = requires(C& ctx, const C& cctx, C&& slice) {
  { cctx.fork() } -> std::same_as<C>;
  ctx.join(std::move(slice));
};

/// Reduce marker of a `.add()` entry: the context slices itself.
struct member_join {};

/// One (callback, context) registration of a plan.  `Reduce` is member_join
/// for `.add()` and the declared reduction for `.add_reduced()`.
template <typename Callback, typename Context, typename Reduce, reduce_scope Scope>
struct callback_entry {
  using callback_type = Callback;
  using context_type = Context;

  Callback callback;
  Context* context;
  [[no_unique_address]] Reduce reduce;

  /// An empty slice of the registered context.
  [[nodiscard]] Context fork() const {
    if constexpr (std::is_same_v<Reduce, member_join>) {
      return context->fork();
    } else {
      return Context{};
    }
  }

  /// Fold one slice back into the registered context (owning thread).
  void join(Context&& slice) {
    if constexpr (std::is_same_v<Reduce, member_join>) {
      context->join(std::move(slice));
    } else {
      *context = reduce(std::as_const(*context), std::as_const(slice));
    }
  }

  /// End of run: reduce_scope::global all_reduces the joined context.
  void finish([[maybe_unused]] comm::communicator& c) {
    if constexpr (Scope == reduce_scope::global) {
      *context = c.all_reduce(*context, reduce);
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
/// graph::overlay).  A plan over a built `graph::dodgr` only feeds
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
  /// and must outlive run().  Each closing thread fires into its own
  /// `context.fork()`, joined back with `context.join(slice)` at phase end.
  template <typename Callback, typename Context>
  [[nodiscard]] auto add(Callback callback, Context& context) const {
    static_assert(core::detail::sliceable_context<Context>,
                  ".add(cb, ctx) needs a sliceable context: every thread that closes "
                  "batches fires into its own slice, so Context must provide "
                  "`Context fork() const` (an empty slice) and `void join(Context&&)` "
                  "(fold a slice back); register a plain value context with "
                  ".add_reduced(cb, ctx, reduce) instead");
    return append(core::detail::callback_entry<Callback, Context, core::detail::member_join,
                                               reduce_scope::threads>{std::move(callback),
                                                                      &context, {}});
  }

  /// Register a (callback, context) pair WITH a declared reduction over
  /// context state: the shorthand for value contexts.  `reduce` must be a
  /// stateless binary op `Context(const Context&, const Context&)`.  Slices
  /// are default-constructed and fold back as `ctx = reduce(ctx, slice)`;
  /// Scope == reduce_scope::global additionally all_reduces the folded
  /// context across ranks, so run() returns with `context` already holding
  /// the global result -- the plan-level twin of
  /// count_context::global_count().
  template <reduce_scope Scope = reduce_scope::threads, typename Callback,
            typename Context, typename Reduce>
  [[nodiscard]] auto add_reduced(Callback callback, Context& context,
                                 Reduce reduce) const {
    static_assert(std::is_empty_v<Reduce>,
                  "plan reductions must be stateless (captureless lambda or "
                  "empty functor); global scope runs them through all_reduce");
    static_assert(std::is_default_constructible_v<Context>,
                  ".add_reduced(cb, ctx, reduce) slices by default construction; "
                  "give Context a default constructor or register it with .add() "
                  "and fork()/join() members");
    return append(core::detail::callback_entry<Callback, Context, Reduce, Scope>{
        std::move(callback), &context, std::move(reduce)});
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

  /// One thread's context slices, one element per entry.
  using slice_tuple = std::tuple<typename Entries::context_type...>;

  /// Fresh slices of every registered context (owning thread).
  [[nodiscard]] slice_tuple make_slices() const {
    return std::apply([](const auto&... entry) { return slice_tuple{entry.fork()...}; },
                      entries_);
  }

  /// Fan one discovered triangle out to every callback, each firing into
  /// its slice; `fired[i]` accumulates the callbacks that actually ran.
  /// Runs on whichever thread closed the batch, and never sees the
  /// communicator.
  template <typename View>
  void fire(const View& view, slice_tuple& slices,
            std::array<std::uint64_t, num_callbacks>& fired) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((fired[I] += core::detail::dispatch_callback(std::get<I>(entries_).callback, view,
                                                    std::get<I>(slices))
                        ? 1u
                        : 0u),
       ...);
    }(std::make_index_sequence<num_callbacks>{});
  }

  /// Owning-thread merge point: fold one thread's slices into the
  /// registered contexts.  The engine calls it per thread in worker-index
  /// order (deterministic for any join; bit-identical across runs for
  /// associative+commutative ones).
  void join_slices(slice_tuple& slices) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      (std::get<I>(entries_).join(std::move(std::get<I>(slices))), ...);
    }(std::make_index_sequence<num_callbacks>{});
  }

  /// End-of-run hook, called by the engine on EVERY run (any thread count,
  /// any graph): all_reduce the contexts of reduce_scope::global
  /// entries so they return holding globally-reduced state.
  void finish_reductions(comm::communicator& c) {
    std::apply([&](auto&... entry) { (entry.finish(c), ...); }, entries_);
  }

 private:
  template <typename Entry>
  [[nodiscard]] auto append(Entry entry) const {
    return survey_plan<Graph, VProj, EProj, Entries..., Entry>(
        *graph_, vproj_, eproj_, std::tuple_cat(entries_, std::make_tuple(std::move(entry))),
        window_);
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
/// projected metadata) or a `graph::overlay`; a plan over the built
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
