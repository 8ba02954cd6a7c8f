// survey.hpp -- the TriPoll triangle-survey engine (Secs. 4.3-4.4),
// executing declarative survey plans (core/plan.hpp).
//
// The engine identifies every triangle Δpqr (p <+ q <+ r) of a DODGr and
// fans each discovery out to the plan's callbacks with the six pieces of
// (projected) metadata.  There is no return value in the traditional sense
// (paper Sec. 4.5): the callbacks' side effects on their per-rank contexts
// -- counters, distributed counting sets, file writers -- are the output.
// The engine returns execution metrics (per-phase wall time, measured
// communication volume, pull statistics) plus per-callback fire counts.
//
// Two execution strategies:
//   * push_only (Alg. 1): every wedge batch (p's adjacency suffix at q) is
//     pushed to Rank(q) and merge-path-intersected with Adjm+(q).
//   * push_pull (Sec. 4.4): a dry run counts, for every (source rank,
//     target vertex q), the suffix edges that would be pushed.  Where
//     shipping Adjm+(q) once to that rank is cheaper (d+(q) is known
//     locally), the rank requests a pull: one request RPC per destination
//     rank lists every such q, and Rank(q) grants them all.  The work then
//     splits into Push and Pull phases.  The dry run numbers each rank's
//     targets through a core::dense_index and lays their local sources out
//     in one flat array, target by target, which both phases walk
//     (docs/ARCHITECTURE.md, "Push-pull").
//
// The engine walks slot-addressed graphs (core::slot_addressed_graph): the
// CSR `graph::frozen_dodgr`, as built or as projected by freeze(), and the
// streaming `graph::overlay`.
//
// Intra-rank parallelism (docs/THREADING.md): with survey_options::threads
// > 1, each phase's slot walk is partitioned into work-stealing chunks
// consumed by a small std::thread pool; the dry run's scan workers only
// read the graph and fill their own parts.  Send-phase workers stage
// sends into per-thread buffers delivered straight to the thread-safe
// transport (never through the communicator), and intersect incoming
// batches as tasks.  There is one fire path: whichever thread closes a
// batch fires into its own context slices (plan.hpp), and at phase end the
// owning thread joins the slices into the registered contexts in
// worker-index order.  Counts, volume_bytes and messages of count plans are
// bit-identical across thread counts: per-RPC serialization is unchanged
// and every reported metric is a sum of per-batch/per-source contributions
// independent of the partition.
//
// Every wedge batch closes through core::adaptive_intersect (merge-path, or
// a gallop when the sizes are skewed; core/intersect.hpp).  A pulled
// adjacency is decoded once into a core::probe_table, and each local
// source's suffix probes it in <+ order.
//
// What travels is governed by the plan's projections: every metadata field
// of a wedge batch or pulled adjacency is projected sender-side, so the
// wire (and handler) types below are templated on the PROJECTED metadata
// types, not the graph's.  Owning std::string projections additionally
// deserialize as std::string_view into the drained payload (zero copies).
// The candidate list of a wedge batch and the entry list of a pulled
// adjacency travel packed (core/packed_batch.hpp), encoded straight into
// the send buffer and decoded into reusable scratch by whichever thread
// closes the batch -- a worker task at threads > 1, otherwise the owning
// thread.  Candidates carry varint rank deltas and ids, because Rank(q)
// merges them under <+; a pulled list is an id set sorted by id (varint id
// deltas, no ranks), because the receiver probes it by id.  Neither
// carries meta(q): Rank(q) holds its own record, and a pulled list's
// receiver reads meta(q) from its sources' Adjm+ entries for q.
//
// The legacy single-callback entry point `triangle_survey(graph, callback,
// context)` is a thin identity-projection wrapper over a one-callback plan.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/send_buffers.hpp"
#include "core/dense_index.hpp"
#include "core/intersect.hpp"
#include "core/packed_batch.hpp"
#include "core/parallel.hpp"
#include "core/plan.hpp"
#include "graph/types.hpp"
#include "serial/serialize.hpp"

namespace tripoll {

namespace core::detail {

using clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(clock::time_point start) {
  return std::chrono::duration<double>(clock::now() - start).count();
}

}  // namespace core::detail

namespace core {

/// What the engine needs from a graph: dense 32-bit local slots
/// [0, local_num_vertices()) that resolve to records and vertex ids, plus
/// an id -> slot lookup for the vertices a message names.
template <typename G>
concept slot_addressed_graph = requires(const G& g, graph::vertex_id v, std::uint32_t slot) {
  { g.locate(v) } -> std::convertible_to<std::uint32_t>;
  g.resolve_record(slot);
  { g.vid_at(slot) } -> std::convertible_to<graph::vertex_id>;
  { g.local_num_vertices() } -> std::convertible_to<std::size_t>;
};

}  // namespace core

/// Survey engine: one instance per rank, constructed collectively over a
/// (graph, plan) pair.  Usually accessed through `survey_plan::run()` or
/// the legacy `triangle_survey` free function below.
template <typename Graph, typename Plan>
class survey_engine {
 public:
  using graph_type = Graph;
  using plan_type = Plan;
  using vertex_meta_type = typename Graph::vertex_meta_type;
  using edge_meta_type = typename Graph::edge_meta_type;
  using record_type = typename Graph::record_type;
  using entry_type = typename Graph::entry_type;
  static constexpr std::size_t num_callbacks = Plan::num_callbacks;

  /// Projected metadata types (what the projections return)...
  using pv_type = typename Plan::projected_vertex_type;
  using pe_type = typename Plan::projected_edge_type;
  /// ...and their wire/receive forms (std::string deserializes as a view).
  using wire_vm = core::detail::wire_type_t<pv_type>;
  using wire_em = core::detail::wire_type_t<pe_type>;

  /// Wedge candidates travel ranked, pulled lists as id sets
  /// (core/packed_batch.hpp).
  using batch_type = core::packed_batch<wire_em>;
  using batch_entry = typename batch_type::entry;
  using pulled_type = core::packed_batch<wire_em, core::batch_key::id>;
  using pulled_entry = typename pulled_type::entry;
  using view_type = triangle_view<wire_vm, wire_em>;
  using self = survey_engine<Graph, Plan>;

  static_assert(core::slot_addressed_graph<Graph>,
                "the survey engine walks slot-addressed graphs (graph::frozen_dodgr, "
                "graph::overlay)");

  /// Smaller wedge batches close on the owning thread as they drain: a task
  /// (heap closure, queue lock, worker wake-up) costs more than intersecting.
  static constexpr std::size_t kInlineBatch = 8;

  /// Most q's one pull request carries (8 MiB of ids), so that no frame
  /// nears the transport's frame limit.  A fixed count, not the send
  /// buffer's capacity: volume and messages must not depend on buffering.
  static constexpr std::size_t kMaxRequest = std::size_t{1} << 20;

  /// Time-windowed surveys (plan.window(t0, t1)) filter on the graph's
  /// STORED edge metadata -- before projection -- so the predicate is
  /// push-down: inadmissible wedge edges and candidates never serialize
  /// (volume drops sender-side).  Only meaningful when the stored type is a
  /// timestamp; plan.window() static_asserts the same condition, so a plan
  /// with an active window always reaches a capable engine.
  static constexpr bool window_capable =
      std::is_convertible_v<edge_meta_type, std::uint64_t>;

  survey_engine(graph_type& g, plan_type& plan)
      : comm_(&g.comm()), graph_(&g), plan_(&plan),
        handle_(comm_->register_object(*this)) {}

  ~survey_engine() { comm_->deregister_object(handle_); }

  survey_engine(const survey_engine&) = delete;
  survey_engine& operator=(const survey_engine&) = delete;

  /// Collective: run the fused survey and return global metrics plus
  /// per-callback fire counts.
  plan_result<num_callbacks> run(survey_options opts = {}) {
    comm_->barrier();
    reset_counters();
    threads_ = core::resolve_threads(opts.threads);
    {
      const core::detail::plan_window w = plan_->time_window();
      win_active_ = window_capable && w.active;
      win_t0_ = w.t0;
      win_t1_ = w.t1;
    }
    const auto t_start = core::detail::clock::now();

    plan_result<num_callbacks> out;
    survey_result& result = out.total;
    if (opts.mode == survey_mode::push_only) {
      result.push = run_push_all_phase();
    } else {
      result.dry_run = timed_phase([&] { dry_run(); });
      result.push = run_push_undecided_phase();
      result.pull = run_pull_phase();
    }

    result.total.seconds = comm_->all_reduce_max(core::detail::seconds_since(t_start));
    // Total traffic is the sum of the phases; summing (rather than a fresh
    // snapshot delta) keeps the collective chatter of the metric reductions
    // themselves out of the reported volume.
    result.total.volume_bytes =
        result.dry_run.volume_bytes + result.push.volume_bytes + result.pull.volume_bytes;
    result.total.messages =
        result.dry_run.messages + result.push.messages + result.pull.messages;

    result.pulls_granted = comm_->all_reduce_sum(local_pulls_granted_);
    result.push_batches = comm_->all_reduce_sum(local_push_batches_);
    result.wedge_candidates = comm_->all_reduce_sum(local_candidates_);
    result.triangles_found = comm_->all_reduce_sum(local_triangles_);
    result.proposals_filtered = comm_->all_reduce_sum(local_proposals_filtered_);
    result.list_batches = comm_->all_reduce_sum(local_list_batches_);
    for (std::size_t i = 0; i < num_callbacks; ++i) {
      out.invocations[i] = comm_->all_reduce_sum(local_invocations_[i]);
    }

    // Plan-level result reductions: all_reduce the contexts of
    // reduce_scope::global entries (collective; runs on EVERY run shape).
    plan_->finish_reductions(*comm_);

    release_dry_run();
    return out;
  }

 private:
  // --- shared helpers -------------------------------------------------------

  void reset_counters() {
    local_pulls_granted_ = local_push_batches_ = local_candidates_ = local_triangles_ = 0;
    local_proposals_filtered_ = local_list_batches_ = 0;
    local_invocations_.fill(0);
    release_dry_run();
  }

  void release_dry_run() {
    index_ = {};
    targets_ = {};
    sources_ = {};
    pull_grants_ = {};
  }

  template <typename Body>
  phase_metrics timed_phase(Body&& body) {
    return timed_phase(std::forward<Body>(body), [] {});
  }

  template <typename Body, typename Finish>
  phase_metrics timed_phase(Body&& body, Finish&& finish) {
    // Per-rank snapshot / barrier / body / barrier / per-rank snapshot: a
    // rank's counters move only from its own thread (worker sends go through
    // the transport under this rank's id and complete before the rank
    // announces idle), so the bracketed delta is exactly this rank's sends
    // for the phase.  The explicit reductions turn the deltas into global
    // sums that are bit-identical on every rank (a global point-in-time
    // snapshot here would race with other ranks already issuing the
    // reductions' own traffic).  `finish` runs after the closing barrier --
    // when every batch has been handled, hence every intersect task enqueued
    // -- and before the elapsed time is read, so task-queue drain, worker
    // join and slice joins are charged to the phase that produced them.  A
    // join may send (a counting set's cache evicting); flush_all() hands
    // those sends to the transport before the closing snapshot, so the phase
    // counts them, and the reductions' barriers below deliver them.
    const auto before = comm_->local_stats();
    comm_->barrier();
    const auto start = core::detail::clock::now();
    body();
    comm_->barrier();
    finish();
    comm_->flush_all();
    const double elapsed = core::detail::seconds_since(start);
    const auto delta = comm_->local_stats() - before;  // excludes the reductions below
    phase_metrics m;
    m.seconds = comm_->all_reduce_max(elapsed);
    m.volume_bytes = comm_->all_reduce_sum(delta.remote_bytes);
    m.messages = comm_->all_reduce_sum(delta.messages_sent);
    return m;
  }

  // --- metadata projection helpers ------------------------------------------

  [[nodiscard]] decltype(auto) pv(const vertex_meta_type& m) const {
    return plan_->vertex_proj()(m);
  }
  [[nodiscard]] decltype(auto) pe(const edge_meta_type& m) const {
    return plan_->edge_proj()(m);
  }

  /// View a projected value as the wire/view type: identity for everything
  /// except owning strings, which become string_views over the argument.
  [[nodiscard]] static decltype(auto) vm_view(const pv_type& v) noexcept {
    if constexpr (std::is_same_v<wire_vm, pv_type>) {
      return (v);
    } else {
      return wire_vm(v);
    }
  }
  [[nodiscard]] static decltype(auto) em_view(const pe_type& v) noexcept {
    if constexpr (std::is_same_v<wire_em, pe_type>) {
      return (v);
    } else {
      return wire_em(v);
    }
  }

  // --- plan-window predicate ---------------------------------------------------

  /// Does the stored edge metadata fall inside the plan's half-open window
  /// [t0, t1)?  Always true when no window is active (the common case costs
  /// one branch) or when the metadata is not a timestamp (window_capable
  /// false compiles the test away entirely).
  [[nodiscard]] bool admits([[maybe_unused]] const edge_meta_type& m) const noexcept {
    if constexpr (window_capable) {
      if (win_active_) {
        const auto ts = static_cast<std::uint64_t>(m);
        return ts >= win_t0_ && ts < win_t1_;
      }
    }
    return true;
  }

  /// Number of in-window entries of rec.adj from position `first` on: the
  /// entry count of a wedge batch or pulled list, and the candidates one
  /// pulled source stands for.
  template <typename Rec>
  [[nodiscard]] std::uint64_t admitted_from(const Rec& rec, std::size_t first) const {
    bool windowed = false;
    if constexpr (window_capable) windowed = win_active_;
    if (!windowed) return rec.adj.size() - first;
    std::uint64_t n = 0;
    for (std::size_t j = first; j < rec.adj.size(); ++j) {
      n += admits(rec.adj[j].edge_meta) ? 1u : 0u;
    }
    return n;
  }

  /// Encode those same entries, metadata projected, into a batch on the wire.
  template <typename Rec>
  void encode_from(typename batch_type::encoder& enc, const Rec& rec,
                   std::size_t first) const {
    for (std::size_t j = first; j < rec.adj.size(); ++j) {
      const entry_type& e = rec.adj[j];
      if (admits(e.edge_meta)) enc.push(e.target, e.target_rank, pe(e.edge_meta));
    }
  }

  /// Walk the wedge splits of `rec` that survive the plan window, invoking
  /// `fn(i, q_entry, admitted_suffix)` where admitted_suffix is the number
  /// of in-window candidates past position i.  Without an active window
  /// this is the classic every-split walk with suffix = adj.size()-i-1; with
  /// one, splits whose wedge edge is out-of-window or whose admitted suffix
  /// is empty are skipped entirely (one O(|adj|) suffix-count pass keeps the
  /// dry run linear).  Each dry-run scan worker walks its slots through it.
  template <typename Rec, typename Fn>
  void scan_wedge_splits(const Rec& rec, Fn&& fn) const {
    if (rec.adj.size() < 2) return;
    bool windowed = false;
    if constexpr (window_capable) windowed = win_active_;
    if (!windowed) {
      for (std::size_t i = 0; i + 1 < rec.adj.size(); ++i) {
        fn(i, rec.adj[i], static_cast<std::uint64_t>(rec.adj.size() - i - 1));
      }
      return;
    }
    // Count admitted entries once, then walk ascending keeping the admitted
    // count of the open suffix (i, end) -- two linear passes, no per-record
    // allocation (this scan runs once per record per survey).
    std::uint64_t remaining = 0;
    for (const entry_type& e : rec.adj) remaining += admits(e.edge_meta) ? 1u : 0u;
    for (std::size_t i = 0; i + 1 < rec.adj.size(); ++i) {
      const entry_type& q_entry = rec.adj[i];
      const bool adm = admits(q_entry.edge_meta);
      if (adm) --remaining;
      if (!adm || remaining == 0) continue;
      fn(i, q_entry, remaining);
    }
  }

  // --- send paths (serial via the communicator, parallel via per-worker
  // --- comm::send_buffers delivering straight to the transport) --------------

  /// Owning-thread sender: forwards to the communicator, whose send_buffers
  /// follow the same rule as a worker's and which also polls its inbox.
  struct comm_sender {
    comm::communicator* c;
    template <typename Handler, typename... Args>
    void async(int dest, Handler h, const Args&... args) {
      c->async(dest, h, args...);
    }
  };

  /// Ship the wedge batch (p; q at position i; suffix beyond i) to Rank(q),
  /// all metadata projected sender-side.  `snd` is a comm_sender on the
  /// owning thread or a worker's comm::send_buffers; the counters are the
  /// caller's (engine-local or per-worker, merged later).
  template <typename Sender>
  void send_wedge_batch(Sender& snd, graph::vertex_id p, const record_type& rec,
                        std::size_t i, std::uint64_t& cand_ctr,
                        std::uint64_t& batch_ctr) const {
    const entry_type& q_entry = rec.adj[i];
    if (!admits(q_entry.edge_meta)) return;  // wedge edge outside the plan window
    const std::uint64_t n = admitted_from(rec, i + 1);
    if (n == 0) return;  // only reachable with an active window
    cand_ctr += n;
    ++batch_ctr;
    decltype(auto) meta_p = pv(rec.meta);
    decltype(auto) meta_pq = pe(q_entry.edge_meta);
    const auto fill = [&](typename batch_type::encoder& enc) { encode_from(enc, rec, i + 1); };
    snd.async(graph_->owner(q_entry.target), wedge_batch_handler{}, handle_,
              q_entry.target, p, vm_view(meta_p), em_view(meta_pq),
              batch_type::encode(fill));
  }

  // --- dry-run bookkeeping types (declared early: they appear in member
  // --- function signatures below) --------------------------------------------

  /// One local wedge source: the slot of p (vid_at(slot) gives p) and the
  /// split index of q in Adjm+(p).  The push and pull phases revisit every
  /// source, and re-finding p by hash once per source pair would cost ~|E+|
  /// lookups per survey.  Slots are stable for the whole survey (the graph
  /// is not mutated).
  struct source_ref {
    std::uint32_t slot = 0;
    std::uint32_t split = 0;
  };

  /// Dry-run product for one target vertex q this rank would push to: the
  /// total candidate count, d+(q), and the range [first, last) of sources_
  /// holding its local sources -- "the pass also stores pointers to
  /// efficiently iterate over source vertices stored locally".  targets_ is
  /// numbered by index_, and its ranges tile sources_ in that order.
  struct per_target {
    std::uint64_t candidate_count = 0;
    std::uint64_t q_out_degree = 0;  ///< d+(q), known locally from Adjm+ (P6)
    std::size_t first = 0;
    std::size_t last = 0;
    bool pulled = false;  ///< Adjm+(q) arrived; a second list is refused

    /// Pulling pays off when shipping Adjm+(q) once beats receiving the
    /// candidates: d+(q) < candidate_count.  Such a target is requested and
    /// always granted; its sources close in the pull phase, every other
    /// target's in the push phase.
    [[nodiscard]] bool proposes() const noexcept { return q_out_degree < candidate_count; }
  };

  /// A scan worker's row for one wedge split: the number of its target in
  /// the worker's own index, and the source (12 bytes).
  struct scan_row {
    std::uint32_t target = 0;
    source_ref source;
  };

  /// One dry-run scan worker's product: the targets it met, numbered
  /// first-seen through its own index, with their sums (`last` counts each
  /// target's rows), and one row per wedge split it scanned.
  struct scan_part {
    core::dense_index index;
    std::vector<per_target> targets;
    std::vector<scan_row> rows;
  };

  /// A pull Rank(q) granted: Adjm+(q), at `slot` here, goes to `rank`.
  struct pull_grant {
    graph::vertex_id q = 0;
    std::uint32_t slot = 0;
    int rank = 0;
  };

  /// Sort scratch of a pulled list: an entry's id and its position in
  /// Adjm+(q).
  struct id_order {
    graph::vertex_id r = 0;
    std::uint32_t at = 0;
  };

  // --- intra-rank worker pool -------------------------------------------------

  /// What one closing thread gathers in a phase: its context slices, fire
  /// counts, kernel counters and decode scratch.  Joined into the engine and
  /// the registered contexts at phase end (absorb()).
  struct fire_state {
    explicit fire_state(Plan& plan) : slices(plan.make_slices()) {}
    typename Plan::slice_tuple slices;
    std::array<std::uint64_t, num_callbacks> fired{};
    std::uint64_t candidates = 0;
    std::uint64_t triangles = 0;
    std::uint64_t list_batches = 0;
    std::vector<batch_entry> scratch;   ///< decoded wedge batches this thread closes
    std::vector<pulled_entry> pulled;   ///< decoded pulled lists this thread closes
    core::probe_table probe;            ///< index over a decoded pulled list
  };

  /// One worker thread's whole world: its fire state plus its send buffers
  /// and send counter.
  struct worker_ctx : fire_state {
    worker_ctx(Plan& plan, comm::transport& t, int rank)
        : fire_state(plan), sender(t, rank) {}
    comm::send_buffers sender;
    std::uint64_t push_batches = 0;
    std::vector<id_order> order;  ///< sort scratch of the pulled lists it sends
  };

  /// Owning thread, phase end: fold one thread's counters into the engine
  /// and its slices into the registered contexts.
  void absorb(fire_state& fs) {
    local_candidates_ += fs.candidates;
    local_triangles_ += fs.triangles;
    local_list_batches_ += fs.list_batches;
    for (std::size_t i = 0; i < num_callbacks; ++i) local_invocations_[i] += fs.fired[i];
    plan_->join_slices(fs.slices);
  }

  void fire(fire_state& fs, const view_type& view) const {
    ++fs.triangles;
    plan_->fire(view, fs.slices, fs.fired);
  }

  /// An intersect task: closes one batch into the fire state of whichever
  /// thread pops it (a worker, or the owning thread's own_).
  using task_fn = std::function<void(fire_state&)>;

  /// Per-phase worker pool: run_stage() spawns the workers on a send stage
  /// and drains the inbox until they finish sending (so this rank only
  /// enters the phase's closing barrier once its traffic is fully delivered
  /// -- the quiescence handshake counts delivered buffers).  Workers then
  /// consume intersect tasks until finish() closes the queue after the
  /// barrier, joins them, and absorbs their states in worker-index order.
  /// The owning thread pops tasks too whenever it would otherwise wait.
  /// The destructor makes barrier exceptions safe (close + join, no merge).
  class parallel_pool {
   public:
    explicit parallel_pool(self& eng) : eng_(eng) {}

    parallel_pool(const parallel_pool&) = delete;
    parallel_pool& operator=(const parallel_pool&) = delete;

    ~parallel_pool() {
      eng_.tasks_.close();
      eng_.tasks_enabled_ = false;
      for (auto& t : threads_) {
        if (t.joinable()) t.join();
      }
    }

    template <typename Stage>
    void run_stage(Stage&& stage) {
      auto& transport = eng_.comm_->underlying_transport();
      const int rank = eng_.comm_->rank();
      eng_.tasks_.reopen();
      eng_.tasks_enabled_ = true;
      eng_.senders_active_.store(eng_.threads_, std::memory_order_relaxed);
      ctxs_.reserve(static_cast<std::size_t>(eng_.threads_));
      for (int w = 0; w < eng_.threads_; ++w) {
        ctxs_.push_back(std::make_unique<worker_ctx>(*eng_.plan_, transport, rank));
      }
      for (int w = 0; w < eng_.threads_; ++w) {
        threads_.emplace_back([this, w, &transport, stage]() mutable {
          worker_ctx& wc = *ctxs_[static_cast<std::size_t>(w)];
          try {
            stage(wc);
            wc.sender.flush_all();
          } catch (...) {
            transport.abort_run(std::current_exception());
          }
          eng_.senders_active_.fetch_sub(1, std::memory_order_acq_rel);
          task_fn task;
          while (eng_.tasks_.pop(task)) {
            try {
              task(wc);
            } catch (...) {
              transport.abort_run(std::current_exception());
            }
            task = nullptr;
          }
        });
      }
      // The owning thread drains (and enqueues tasks) while workers send,
      // closing queued batches itself between polls; leaving only once
      // senders_active_ hits zero guarantees every worker's buffer has been
      // delivered before this rank can announce idle.
      while (eng_.senders_active_.load(std::memory_order_acquire) > 0) {
        eng_.comm_->process_incoming();
        if (!run_one_task()) std::this_thread::yield();
      }
    }

    void finish() {
      if (finished_) return;
      finished_ = true;
      while (run_one_task()) {
      }
      eng_.tasks_.close();
      eng_.tasks_enabled_ = false;
      for (auto& t : threads_) t.join();
      threads_.clear();
      for (auto& up : ctxs_) {
        eng_.local_push_batches_ += up->push_batches;
        eng_.absorb(*up);  // worker-index order
      }
      ctxs_.clear();
    }

   private:
    bool run_one_task() {
      task_fn task;
      if (!eng_.tasks_.try_pop(task)) return false;
      task(*eng_.own_);
      return true;
    }

    self& eng_;
    std::vector<std::unique_ptr<worker_ctx>> ctxs_;
    std::vector<std::thread> threads_;
    bool finished_ = false;
  };

  // --- intersection (shared by the inline and worker-task receive paths) ------

  /// Close one wedge batch against Adjm+(q), decoding it into the closing
  /// thread's scratch and firing into its slices.  The kernel counter is
  /// per-batch and partition-independent.
  void process_wedge_batch(graph::vertex_id q, graph::vertex_id p,
                           const wire_vm& meta_p, const wire_em& meta_pq,
                           const batch_type& batch, fire_state& fs) const {
    const std::uint32_t slot = graph_->locate(q);
    std::vector<batch_entry>& candidates = fs.scratch;
    batch.decode(candidates);
    ++fs.list_batches;
    decltype(auto) rec_q = graph_->resolve_record(slot);
    decltype(auto) meta_q = pv(rec_q.meta);  // projected once per batch
    // Adaptive kernel: a short pushed suffix meeting a hub's long list
    // gallops instead of scanning (degeneracy-ordering insight from
    // Pashanasangi & Seshadhri; see core/intersect.hpp).
    core::adaptive_intersect(
        candidates.begin(), candidates.end(), rec_q.adj.begin(), rec_q.adj.end(),
        [](const batch_entry& cand) { return cand.key(); },
        [](const entry_type& e) { return e.key(); },
        [&](const batch_entry& cand, const entry_type& e) {
          if (!admits(e.edge_meta)) return;  // closing edge outside the window
          decltype(auto) meta_r = pv(e.target_meta);
          decltype(auto) meta_qr = pe(e.edge_meta);
          fire(fs, view_type{p, q, e.target, meta_p, vm_view(meta_q), vm_view(meta_r),
                             meta_pq, cand.meta, em_view(meta_qr)});
        });
  }

  /// Close one pulled adjacency Adjm+(q) against every local source (p, i).
  /// The list is decoded once into the closing thread's scratch and indexed
  /// once by its probe table; each entry of the suffix of Adjm+(p) past the
  /// split then probes the table by id.  Ids name vertices, and a vertex has
  /// one rank in every Adjm+ that holds it, so an id match is the merge's
  /// order_key match; the suffix is walked in <+ order, so each source fires
  /// what a merge would, in the same order.  meta(q) comes from the q entry
  /// of the first source's Adjm+: every source's entry for q holds it.
  void process_pulled(graph::vertex_id q, const pulled_type& batch, const per_target& t,
                      fire_state& fs) const {
    std::vector<pulled_entry>& entries = fs.pulled;
    batch.decode(entries);
    fs.probe.build(entries.size(), [&](std::size_t k) { return entries[k].r; });
    const source_ref& first = sources_[t.first];
    decltype(auto) meta_q = pv(graph_->resolve_record(first.slot).adj[first.split].target_meta);
    for (std::size_t src = t.first; src < t.last; ++src) {
      const source_ref& s = sources_[src];
      decltype(auto) rec_p = graph_->resolve_record(s.slot);
      const graph::vertex_id p = graph_->vid_at(s.slot);
      const std::uint32_t i = s.split;
      fs.candidates += admitted_from(rec_p, i + 1);
      ++fs.list_batches;
      const entry_type& q_entry = rec_p.adj[i];
      decltype(auto) meta_p = pv(rec_p.meta);
      decltype(auto) meta_pq = pe(q_entry.edge_meta);
      for (std::size_t j = i + 1; j < rec_p.adj.size(); ++j) {
        const entry_type& e_pr = rec_p.adj[j];
        const std::size_t k =
            fs.probe.find(e_pr.target, [&](std::size_t c) { return entries[c].r == e_pr.target; });
        if (k == core::probe_table::npos) continue;
        if (!admits(e_pr.edge_meta)) continue;  // candidate edge outside window
        // Callback on Rank(p): meta(r) comes from p's own Adjm+ entry.
        decltype(auto) meta_r = pv(e_pr.target_meta);
        decltype(auto) meta_pr = pe(e_pr.edge_meta);
        fire(fs, view_type{p, q, e_pr.target, vm_view(meta_p), vm_view(meta_q), vm_view(meta_r),
                           em_view(meta_pq), em_view(meta_pr), entries[k].meta});
      }
    }
  }

  // --- send phases ------------------------------------------------------------

  /// Owning-thread twin of worker_ctx: the sender and counters a send stage
  /// uses on the single-threaded path.
  struct serial_ctx {
    explicit serial_ctx(comm::communicator* c) : sender{c} {}
    comm_sender sender;
    std::uint64_t candidates = 0;
    std::uint64_t push_batches = 0;
    std::vector<id_order> order;
  };

  /// Run one timed send phase over `n` work items: `range(ctx, first, last)`
  /// sends items [first, last) through ctx.sender, counting into
  /// ctx.candidates / ctx.push_batches.  With threads > 1 the worker pool
  /// consumes self-scheduled chunks; otherwise the owning thread walks the
  /// whole range through the communicator (which also polls its inbox).
  /// `own_` holds the slices of the batches the owning thread closes itself
  /// (all of them at threads == 1); it joins after the workers.
  template <typename Range>
  phase_metrics send_phase(std::size_t n, Range&& range) {
    own_.emplace(*plan_);
    const auto join_own = [&] {
      absorb(*own_);
      own_.reset();
    };
    if (threads_ > 1) {
      core::chunk_queue chunks(n, core::chunk_size_for(n, threads_));
      parallel_pool pool(*this);
      return timed_phase(
          [&] {
            pool.run_stage([&](worker_ctx& wc) {
              std::size_t first = 0, last = 0;
              while (chunks.next(first, last)) {
                range(wc, first, last);
                comm_->underlying_transport().throw_if_aborted();
              }
            });
          },
          [&] {
            pool.finish();
            join_own();
          });
    }
    return timed_phase(
        [&] {
          serial_ctx sc(comm_);
          range(sc, 0, n);
          local_candidates_ += sc.candidates;
          local_push_batches_ += sc.push_batches;
        },
        join_own);
  }

  // --- push-only (Alg. 1) ------------------------------------------------------

  phase_metrics run_push_all_phase() {
    return send_phase(graph_->local_num_vertices(),
                      [&](auto& ctx, std::size_t first, std::size_t last) {
                        for (std::size_t slot = first; slot < last; ++slot) {
                          const auto s = static_cast<std::uint32_t>(slot);
                          decltype(auto) rec = graph_->resolve_record(s);
                          const graph::vertex_id p = graph_->vid_at(s);
                          for (std::size_t i = 0; i + 1 < rec.adj.size(); ++i) {
                            send_wedge_batch(ctx.sender, p, rec, i, ctx.candidates,
                                             ctx.push_batches);
                          }
                        }
                      });
  }

  struct wedge_batch_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h, graph::vertex_id q,
                    graph::vertex_id p, const wire_vm& meta_p, const wire_em& meta_pq,
                    const batch_type& candidates) {
      self& eng = c.resolve(h);
      if (!eng.tasks_enabled_ || candidates.size() < kInlineBatch) {
        eng.process_wedge_batch(q, p, meta_p, meta_pq, candidates, *eng.own_);
        return;
      }
      // Steal the drained payload (the candidates/meta views point into it)
      // and queue decoding and intersection as a task; whichever thread pops
      // it fires into its own context slices (docs/THREADING.md).
      auto payload = c.share_current_payload();
      eng.tasks_.push([&eng, payload = std::move(payload), q, p, meta_p, meta_pq,
                       candidates](fire_state& fs) {
        eng.process_wedge_batch(q, p, meta_p, meta_pq, candidates, fs);
      });
    }
  };

  // --- push-pull (Sec. 4.4) ------------------------------------------------------

  void dry_run() {
    // Communication-free counting pass over slot chunks.  Each worker numbers
    // the targets it meets in its own scan_part (core::fork_join runs worker
    // 0 on this thread, and only it at threads == 1); this thread then
    // numbers them engine-wide in worker order and scatters their sources.
    // The per-target sums are partition-independent; only the order of
    // targets and of a target's sources varies, and neither feeds a
    // reported metric.
    const std::size_t n = graph_->local_num_vertices();
    core::chunk_queue chunks(n, core::chunk_size_for(n, threads_));
    std::vector<scan_part> parts(static_cast<std::size_t>(threads_));
    core::fork_join(threads_, [&](int w) {
      std::size_t first = 0, last = 0;
      while (chunks.next(first, last)) {
        scan_slots(parts[static_cast<std::size_t>(w)], first, last);
      }
    });
    gather_targets(parts);
    // Request a pull of every q where it wins (per_target::proposes(); d+(q)
    // is already local, the builder's P6 flow): the q's go into one list per
    // owner rank, and each non-empty list in one request RPC (this rank
    // included).  The rest are filtered and push in the push phase.
    std::vector<std::vector<graph::vertex_id>> requests(static_cast<std::size_t>(comm_->size()));
    for (std::size_t g = 0; g < targets_.size(); ++g) {
      if (!targets_[g].proposes()) {
        ++local_proposals_filtered_;
        continue;
      }
      const graph::vertex_id q = index_.ids[g];
      requests[static_cast<std::size_t>(graph_->owner(q))].push_back(q);
    }
    for (int dest = 0; dest < comm_->size(); ++dest) {
      const auto& qs = requests[static_cast<std::size_t>(dest)];
      for (std::size_t at = 0; at < qs.size(); at += kMaxRequest) {
        const std::size_t count = std::min(kMaxRequest, qs.size() - at);
        comm_->async(dest, pull_request_handler{}, handle_, comm_->rank(),
                     serial::wire_span<graph::vertex_id>(
                         reinterpret_cast<const std::byte*>(qs.data() + at), count));
      }
    }
    // The barrier of timed_phase() drains the requests.
  }

  /// Scan the in-window wedge splits of slots [first, last) into `part`:
  /// number each split's target, add its suffix to the target's sum and
  /// append its row.
  void scan_slots(scan_part& part, std::size_t first, std::size_t last) const {
    for (std::size_t slot = first; slot < last; ++slot) {
      const auto s = static_cast<std::uint32_t>(slot);
      decltype(auto) rec = graph_->resolve_record(s);
      scan_wedge_splits(rec, [&](std::size_t i, const entry_type& q_entry,
                                 std::uint64_t admitted_suffix) {
        const std::uint32_t k = part.index.add(q_entry.target);
        if (k == part.targets.size()) {
          part.targets.emplace_back().q_out_degree = q_entry.target_out_degree;
        }
        per_target& t = part.targets[k];
        t.candidate_count += admitted_suffix;
        ++t.last;
        part.rows.push_back({k, {s, static_cast<std::uint32_t>(i)}});
      });
    }
  }

  /// Owning thread, after the scan: number the workers' targets through
  /// index_ in worker order, add up their sums, and lay their sources out
  /// target by target in sources_ (a counting pass, then a stable scatter).
  /// Worker 0's numbering is the start of the engine-wide one, so index_
  /// and targets_ take its part over whole.
  void gather_targets(std::vector<scan_part>& parts) {
    index_ = std::move(parts[0].index);
    targets_ = std::move(parts[0].targets);
    std::vector<std::vector<std::uint32_t>> number(parts.size());
    for (std::size_t w = 1; w < parts.size(); ++w) {
      scan_part& part = parts[w];
      number[w].resize(part.targets.size());
      for (std::size_t k = 0; k < part.targets.size(); ++k) {
        const std::uint32_t g = index_.add(part.index.ids[k]);
        if (g == targets_.size()) targets_.emplace_back();
        per_target& t = targets_[g];
        t.candidate_count += part.targets[k].candidate_count;
        t.q_out_degree = part.targets[k].q_out_degree;
        t.last += part.targets[k].last;
        number[w][k] = g;
      }
      part.index = {};
      part.targets = {};
    }
    std::size_t next = 0;
    for (per_target& t : targets_) {  // `last` holds the row count until here
      t.first = next;
      next += t.last;
      t.last = t.first;  // the scatter's cursor; it ends at first + count
    }
    sources_.resize(next);
    for (std::size_t w = 0; w < parts.size(); ++w) {
      for (const scan_row& r : parts[w].rows) {
        const std::uint32_t g = w == 0 ? r.target : number[w][r.target];
        sources_[targets_[g].last++] = r.source;
      }
      parts[w] = {};
    }
  }

  /// Rank(q) grants every pull `source_rank` requests: the requester
  /// applied the same test to the same d+(q).
  struct pull_request_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h, int source_rank,
                    serial::wire_span<graph::vertex_id> qs) {
      self& eng = c.resolve(h);
      if (source_rank < 0 || source_rank >= c.size()) {
        throw std::runtime_error("survey pull_request_handler: source_rank " +
                                 std::to_string(source_rank) + " outside [0, " +
                                 std::to_string(c.size()) + ")");
      }
      for (const graph::vertex_id q : qs) {
        if (eng.graph_->owner(q) != c.rank()) {
          throw std::runtime_error("survey pull_request_handler: rank " +
                                   std::to_string(c.rank()) + " does not own q=" +
                                   std::to_string(q));
        }
        eng.pull_grants_.push_back({q, eng.graph_->locate(q), source_rank});
        ++eng.local_pulls_granted_;
      }
    }
  };

  phase_metrics run_push_undecided_phase() {
    // Chunk the targets: a target not granted a pull pushes its sources, and
    // has at most candidate_count <= d+(q) of them, so chunks stay balanced.
    return send_phase(targets_.size(), [&](auto& ctx, std::size_t first, std::size_t last) {
      for (std::size_t g = first; g < last; ++g) {
        const per_target& t = targets_[g];
        if (t.proposes()) continue;  // closes in the pull phase
        for (std::size_t k = t.first; k < t.last; ++k) {
          const source_ref& s = sources_[k];
          send_wedge_batch(ctx.sender, graph_->vid_at(s.slot), graph_->resolve_record(s.slot),
                           s.split, ctx.candidates, ctx.push_batches);
        }
      }
    });
  }

  phase_metrics run_pull_phase() {
    return send_phase(pull_grants_.size(), [&](auto& ctx, std::size_t first, std::size_t last) {
      for (std::size_t k = first; k < last; ++k) {
        send_pulled_adjacency(ctx.sender, ctx.order, pull_grants_[k]);
      }
    });
  }

  /// Ship Adjm+(q)'s in-window entries to the granted rank as an id set,
  /// sorted by id through the sending thread's `order` scratch.
  template <typename Sender>
  void send_pulled_adjacency(Sender& snd, std::vector<id_order>& order,
                             const pull_grant& grant) const {
    decltype(auto) rec_q = graph_->resolve_record(grant.slot);
    order.clear();
    for (std::size_t j = 0; j < rec_q.adj.size(); ++j) {
      if (admits(rec_q.adj[j].edge_meta)) {
        order.push_back({rec_q.adj[j].target, static_cast<std::uint32_t>(j)});
      }
    }
    bool windowed = false;
    if constexpr (window_capable) windowed = win_active_;
    if (windowed && order.empty()) return;  // nothing to close against
    std::sort(order.begin(), order.end(),
              [](const id_order& a, const id_order& b) { return a.r < b.r; });
    const auto fill = [&](typename pulled_type::encoder& enc) {
      for (const id_order& o : order) enc.push(o.r, pe(rec_q.adj[o.at].edge_meta));
    };
    snd.async(grant.rank, pulled_adj_handler{}, handle_, grant.q, pulled_type::encode(fill));
  }

  struct pulled_adj_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h, graph::vertex_id q,
                    const pulled_type& entries) {
      self& eng = c.resolve(h);
      // A list for a q this rank never met in its dry run is corrupt (or
      // hostile).  The push phase already closed the sources of a target
      // this rank did not request, and a repeated list would close them
      // twice: refuse all three.  Stable reference: targets_ sees no
      // inserts after the dry run.  Handlers run on the owning thread, so
      // the flag needs no lock.
      const std::uint32_t g = eng.index_.find(q);
      if (g == core::dense_index::npos) {
        throw std::runtime_error("survey pulled_adj_handler: no dry-run target for q=" +
                                 std::to_string(q));
      }
      per_target& t = eng.targets_[g];
      if (!t.proposes() || t.pulled) {
        throw std::runtime_error(std::string("survey pulled_adj_handler: ") +
                                 (t.pulled ? "second list" : "pull not requested") +
                                 " for q=" + std::to_string(q));
      }
      t.pulled = true;
      if (!eng.tasks_enabled_) {
        eng.process_pulled(q, entries, t, *eng.own_);
        return;
      }
      auto payload = c.share_current_payload();
      eng.tasks_.push([&eng, payload = std::move(payload), q, entries, &t](fire_state& fs) {
        eng.process_pulled(q, entries, t, fs);
      });
    }
  };

  comm::communicator* comm_;
  graph_type* graph_;
  plan_type* plan_;
  comm::dist_handle<self> handle_;

  // Dry-run product (released at the end of run()).
  core::dense_index index_;          ///< q -> its number in targets_
  std::vector<per_target> targets_;
  std::vector<source_ref> sources_;  ///< every target's sources, target by target
  std::vector<pull_grant> pull_grants_;  ///< arrival order; the pull phase chunks it
  /// The owning thread's fire state during a send phase (send_phase()).
  std::optional<fire_state> own_;

  int threads_ = 1;
  bool win_active_ = false;         ///< plan window active this run (run() caches it)
  std::uint64_t win_t0_ = 0;        ///< window [t0, t1) on stored edge timestamps
  std::uint64_t win_t1_ = 0;
  bool tasks_enabled_ = false;  ///< read/written on the owning thread only
  std::atomic<int> senders_active_{0};
  core::task_queue<task_fn> tasks_;

  std::uint64_t local_pulls_granted_ = 0;
  std::uint64_t local_push_batches_ = 0;
  std::uint64_t local_candidates_ = 0;
  std::uint64_t local_triangles_ = 0;
  std::uint64_t local_proposals_filtered_ = 0;
  std::uint64_t local_list_batches_ = 0;
  std::array<std::uint64_t, num_callbacks> local_invocations_{};
};

namespace core::detail {

/// Collective: construct the engine for (graph, plan) and run one survey.
/// Out-of-line from survey_plan::run() so plan.hpp does not need the engine.
template <typename Graph, typename Plan>
plan_result<Plan::num_callbacks> run_plan(Graph& g, Plan& plan, survey_options opts) {
  survey_engine<Graph, Plan> engine(g, plan);
  return engine.run(opts);
}

}  // namespace core::detail

/// Collective convenience wrapper (the original TriPoll entry point): an
/// identity-projection, single-callback plan.  `callback` is invoked as
/// `cb(view, slice)` for every triangle; `context` is this rank's sliceable
/// survey state (plan.hpp: `.add()`).
/// `g` is any slot-addressed graph (frozen CSR or overlay).
template <typename Graph, typename Callback, typename Context>
survey_result triangle_survey(Graph& g, Callback callback, Context& context,
                              survey_options opts = {}) {
  auto plan = survey(g).add(std::move(callback), context);
  return core::detail::run_plan(g, plan, opts).slice(0);
}

}  // namespace tripoll
