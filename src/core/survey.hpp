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
//   * push_pull (Sec. 4.4): a communication-free dry-run counts, for every
//     (source rank, target vertex q), the suffix edges that would be pushed;
//     Rank(q) grants a "pull" when shipping Adjm+(q) once to that rank is
//     cheaper, and the work then splits into Push and Pull phases.
//
// The engine walks slot-addressed graphs (core::slot_addressed_graph): the
// frozen CSR `graph::frozen_dodgr` and the streaming `graph::overlay`.  The
// built `graph::dodgr` has no slot-addressed API -- freeze() it first.
//
// Intra-rank parallelism (docs/THREADING.md): with survey_options::threads
// > 1, each phase's slot walk is partitioned into work-stealing chunks
// consumed by a small std::thread pool.  Workers stage
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
// Every wedge batch and pulled adjacency closes through one kernel,
// core::adaptive_intersect (merge-path, or a gallop when the sizes are
// skewed; core/intersect.hpp).
//
// What travels is governed by the plan's projections: every metadata field
// of a wedge batch or pulled adjacency is projected sender-side, so the
// wire (and handler) types below are templated on the PROJECTED metadata
// types, not the graph's.  Owning std::string projections additionally
// deserialize as std::string_view into the drained payload (zero copies).
// The candidate list of a wedge batch and the entry list of a pulled
// adjacency travel packed (core/packed_batch.hpp): varint rank deltas and
// varint ids, encoded straight into the send buffer, decoded into reusable
// scratch by whichever thread intersects the batch -- a worker task at
// threads > 1, otherwise the owning thread.
//
// The legacy single-callback entry point `triangle_survey(graph, callback,
// context)` is a thin identity-projection wrapper over a one-callback plan.
#pragma once

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
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/intersect.hpp"
#include "core/packed_batch.hpp"
#include "core/parallel.hpp"
#include "core/plan.hpp"
#include "graph/types.hpp"

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

  /// Wedge candidates and pulled entries share one packed wire form
  /// (core/packed_batch.hpp) and one decoded entry type.
  using batch_type = core::packed_batch<wire_em>;
  using batch_entry = typename batch_type::entry;
  using view_type = triangle_view<wire_vm, wire_em>;
  using self = survey_engine<Graph, Plan>;

  static_assert(core::slot_addressed_graph<Graph>,
                "the survey engine walks slot-addressed graphs (graph::frozen_dodgr, "
                "graph::overlay); a built graph::dodgr is not surveyable -- "
                "call graph::freeze(g) first and survey the frozen graph");

  /// Smaller wedge batches close on the owning thread as they drain: a task
  /// (heap closure, queue lock, worker wake-up) costs more than intersecting.
  static constexpr std::size_t kInlineBatch = 8;

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
    pin_ = core::resolve_pinning(opts.pin_threads);
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

    // Release dry-run scratch.
    targets_.clear();
    targets_ = {};
    pull_grants_.clear();
    pull_grants_ = {};
    return out;
  }

 private:
  // --- shared helpers -------------------------------------------------------

  void reset_counters() {
    local_pulls_granted_ = local_push_batches_ = local_candidates_ = local_triangles_ = 0;
    local_proposals_filtered_ = local_list_batches_ = 0;
    local_invocations_.fill(0);
    targets_.clear();
    pull_grants_.clear();
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
  /// dry run linear).  Shared by the serial and parallel dry-run scans so
  /// both register exactly the same (source, target) pairs.
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

  // --- send paths (serial via the communicator, parallel via staged buffers) --

  /// Per-worker send staging: the exact wire recipe of communicator::async
  /// (varint handler id + serialized args, coalesced per destination) with
  /// delivery straight to the thread-safe transport under this rank's id.
  /// Identical bytes-per-RPC and one logical message per RPC keep
  /// volume_bytes and messages invariant to how sends are grouped, hence to
  /// the thread count (docs/THREADING.md).
  class staged_sender {
   public:
    staged_sender(comm::transport& t, int rank, int nranks)
        : t_(&t), rank_(rank), bufs_(static_cast<std::size_t>(nranks)),
          counts_(static_cast<std::size_t>(nranks), 0) {}

    template <typename Handler, typename... Args>
    void async(int dest, Handler /*handler*/, const Args&... args) {
      static_assert(std::is_empty_v<Handler>);
      const std::uint32_t id = comm::detail::handler_id<Handler, std::decay_t<Args>...>();
      auto& buf = bufs_[static_cast<std::size_t>(dest)];
      serial::writer w(buf);
      w.write_varint(id);
      w(args...);
      ++counts_[static_cast<std::size_t>(dest)];
      if (buf.size() >= kStageBytes) flush(dest);
    }

    void flush(int dest) {
      auto& buf = bufs_[static_cast<std::size_t>(dest)];
      if (buf.empty()) return;
      const std::uint64_t n = counts_[static_cast<std::size_t>(dest)];
      counts_[static_cast<std::size_t>(dest)] = 0;
      t_->deliver(rank_, dest, buf.release(), n);
    }

    void flush_all() {
      for (int dest = 0; dest < static_cast<int>(bufs_.size()); ++dest) flush(dest);
    }

    /// Fixed watermark: workers see no barrier-time decay, so a static value
    /// keeps staging deterministic and simple (64 KiB amortizes transport
    /// overhead without hoarding memory across `threads x nranks` buffers).
    static constexpr std::size_t kStageBytes = 64 * 1024;

   private:
    comm::transport* t_;
    int rank_;
    std::vector<serial::byte_buffer> bufs_;
    std::vector<std::uint64_t> counts_;
  };

  /// Serial twin of staged_sender: forwards to the communicator (adaptive
  /// flushing, polling) so the single-threaded path is exactly the old one.
  struct comm_sender {
    comm::communicator* c;
    template <typename Handler, typename... Args>
    void async(int dest, Handler h, const Args&... args) {
      c->async(dest, h, args...);
    }
  };

  /// Ship the wedge batch (p; q at position i; suffix beyond i) to Rank(q),
  /// all metadata projected sender-side.  `snd` is a comm_sender on the
  /// owning thread or a worker's staged_sender; the counters are the
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

  /// One local wedge source (p, split index) with its cached slot: the push
  /// and pull phases revisit every source, and re-finding p by hash once per
  /// source pair would cost ~|E+| lookups per survey.  Slots are stable for
  /// the whole survey (the graph is not mutated).
  struct source_ref {
    graph::vertex_id p = 0;
    std::uint32_t slot = 0;
    std::uint32_t split = 0;
  };

  /// Dry-run product: for each target vertex q this rank would push to, the
  /// total candidate count and the local (p, split-index) sources -- "the
  /// pass also stores pointers to efficiently iterate over source vertices
  /// stored locally".
  struct per_target {
    std::uint64_t candidate_count = 0;
    std::uint64_t q_out_degree = 0;  ///< d+(q), known locally from Adjm+ (P6)
    bool pull_granted = false;
    std::vector<source_ref> sources;
  };

  using targets_map = std::unordered_map<graph::vertex_id, per_target>;

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
    std::vector<batch_entry> scratch;  ///< decoded batches this thread intersects
  };

  /// One worker thread's whole world: its fire state plus its staged sender
  /// and send counter.
  struct worker_ctx : fire_state {
    worker_ctx(Plan& plan, comm::transport& t, int rank, int nranks)
        : fire_state(plan), sender(t, rank, nranks) {}
    staged_sender sender;
    std::uint64_t push_batches = 0;
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
      const int nranks = eng_.comm_->size();
      eng_.tasks_.reopen();
      eng_.tasks_enabled_ = true;
      eng_.senders_active_.store(eng_.threads_, std::memory_order_relaxed);
      ctxs_.reserve(static_cast<std::size_t>(eng_.threads_));
      for (int w = 0; w < eng_.threads_; ++w) {
        ctxs_.push_back(std::make_unique<worker_ctx>(*eng_.plan_, transport, rank, nranks));
      }
      for (int w = 0; w < eng_.threads_; ++w) {
        threads_.emplace_back([this, w, rank, &transport, stage]() mutable {
          // Rank-strided pin slots keep co-located ranks (inproc backend,
          // several socket ranks on one host) off each other's cores.
          if (eng_.pin_) core::pin_current_thread(rank * eng_.threads_ + w);
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
      // senders_active_ hits zero guarantees every staged buffer has been
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

  /// Close one pulled adjacency Adjm+(q), decoded once into the closing
  /// thread's scratch, against every local source (p, i): the pulled entries
  /// meet the suffix of Adjm+(p) past the split.
  void process_pulled(graph::vertex_id q, const wire_vm& meta_q, const batch_type& batch,
                      const per_target& t, fire_state& fs) const {
    std::vector<batch_entry>& entries = fs.scratch;
    batch.decode(entries);
    for (const source_ref& s : t.sources) {
      decltype(auto) rec_p = graph_->resolve_record(s.slot);
      const graph::vertex_id p = s.p;
      const std::uint32_t i = s.split;
      fs.candidates += admitted_from(rec_p, i + 1);
      ++fs.list_batches;
      const entry_type& q_entry = rec_p.adj[i];
      decltype(auto) meta_p = pv(rec_p.meta);
      decltype(auto) meta_pq = pe(q_entry.edge_meta);
      core::adaptive_intersect(
          rec_p.adj.begin() + static_cast<std::ptrdiff_t>(i) + 1, rec_p.adj.end(),
          entries.begin(), entries.end(),
          [](const entry_type& e) { return e.key(); },
          [](const batch_entry& e_qr) { return e_qr.key(); },
          [&](const entry_type& e_pr, const batch_entry& e_qr) {
            if (!admits(e_pr.edge_meta)) return;  // candidate edge outside window
            // Callback on Rank(p): meta(r) comes from p's own Adjm+ entry.
            decltype(auto) meta_r = pv(e_pr.target_meta);
            decltype(auto) meta_pr = pe(e_pr.edge_meta);
            fire(fs, view_type{p, q, e_pr.target, vm_view(meta_p), meta_q,
                               vm_view(meta_r), em_view(meta_pq), em_view(meta_pr),
                               e_qr.meta});
          });
    }
  }

  // --- send phases ------------------------------------------------------------

  /// Owning-thread twin of worker_ctx: the sender and counters a send stage
  /// uses on the single-threaded path.
  struct serial_ctx {
    comm_sender sender;
    std::uint64_t candidates = 0;
    std::uint64_t push_batches = 0;
  };

  /// Run one timed send phase over `n` work items: `range(ctx, first, last)`
  /// sends items [first, last) through ctx.sender, counting into
  /// ctx.candidates / ctx.push_batches.  With threads > 1 the worker pool
  /// consumes self-scheduled chunks; otherwise the owning thread walks the
  /// whole range through the communicator (adaptive flushing, polling).
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
          serial_ctx sc{comm_sender{comm_}};
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
    // Communication-free counting pass over slot chunks (per-worker partial
    // maps merged in worker order when threads > 1 -- the per-target sums
    // are partition-independent, only source order varies, and source order
    // never feeds a reported metric).
    const std::size_t n = graph_->local_num_vertices();
    if (threads_ > 1) {
      dry_run_scan_parallel(n);
    } else {
      scan_slots(targets_, 0, n);
    }
    // One aggregate proposal per (this rank, q) -- but only where pulling
    // could possibly win.  d+(q) is already local (the builder's P6 flow),
    // and Rank(q) grants a pull iff d+(q) < candidate_count, so a proposal
    // that fails that test here is known-hopeless and never sent.
    for (const auto& [q, t] : targets_) {
      if (t.q_out_degree >= t.candidate_count) {
        ++local_proposals_filtered_;
        continue;  // pull_granted stays false; sources push in the push phase
      }
      comm_->async(graph_->owner(q), propose_handler{}, handle_, q, comm_->rank(),
                   t.candidate_count);
    }
    // The barrier of timed_phase() drains proposals and decisions.
  }

  /// Register the in-window wedge splits of slots [first, last) in `out`.
  void scan_slots(targets_map& out, std::size_t first, std::size_t last) const {
    for (std::size_t slot = first; slot < last; ++slot) {
      const auto s = static_cast<std::uint32_t>(slot);
      decltype(auto) rec = graph_->resolve_record(s);
      const graph::vertex_id p = graph_->vid_at(s);
      scan_wedge_splits(rec, [&](std::size_t i, const entry_type& q_entry,
                                 std::uint64_t admitted_suffix) {
        per_target& t = out[q_entry.target];
        t.candidate_count += admitted_suffix;
        t.q_out_degree = q_entry.target_out_degree;
        t.sources.push_back(source_ref{p, s, static_cast<std::uint32_t>(i)});
      });
    }
  }

  void dry_run_scan_parallel(std::size_t n) {
    core::chunk_queue chunks(n, core::chunk_size_for(n, threads_));
    std::vector<targets_map> partial(static_cast<std::size_t>(threads_));
    const int rank = comm_->rank();
    core::fork_join(threads_, [&](int w) {
      // The owning thread (w == 0) participates, comm-free and unpinned.
      if (pin_ && w > 0) core::pin_current_thread(rank * threads_ + w);
      std::size_t first = 0, last = 0;
      while (chunks.next(first, last)) {
        scan_slots(partial[static_cast<std::size_t>(w)], first, last);
      }
    });
    for (auto& pm : partial) {
      for (auto& [q, t] : pm) {
        per_target& dst = targets_[q];
        dst.candidate_count += t.candidate_count;
        dst.q_out_degree = t.q_out_degree;
        if (dst.sources.empty()) {
          dst.sources = std::move(t.sources);
        } else {
          dst.sources.insert(dst.sources.end(), t.sources.begin(), t.sources.end());
        }
      }
      pm = {};
    }
  }

  struct propose_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h, graph::vertex_id q,
                    int source_rank, std::uint64_t candidate_count) {
      self& eng = c.resolve(h);
      if (source_rank < 0 || source_rank >= c.size()) {
        throw std::runtime_error("survey propose_handler: source_rank " +
                                 std::to_string(source_rank) + " outside [0, " +
                                 std::to_string(c.size()) + ") for q=" + std::to_string(q));
      }
      // Pull pays off when shipping Adjm+(q) once beats receiving the
      // candidates: |Adj+(q)| < sum of suffix lengths from that rank.
      const bool pull =
          eng.graph_->resolve_record(eng.graph_->locate(q)).out_degree() < candidate_count;
      if (pull) {
        eng.pull_grants_[q].push_back(source_rank);
        ++eng.local_pulls_granted_;
      }
      c.async(source_rank, decision_handler{}, h, q, pull);
    }
  };

  struct decision_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h, graph::vertex_id q,
                    bool pull) {
      self& eng = c.resolve(h);
      eng.target_of("decision_handler", q).pull_granted = pull;
    }
  };

  phase_metrics run_push_undecided_phase() {
    // Materialize the non-granted sources so the walk chunks a flat array.
    std::vector<const source_ref*> work;
    for (const auto& [q, t] : targets_) {
      if (t.pull_granted) continue;
      for (const source_ref& s : t.sources) work.push_back(&s);
    }
    return send_phase(work.size(), [&](auto& ctx, std::size_t first, std::size_t last) {
      for (std::size_t k = first; k < last; ++k) {
        const source_ref& s = *work[k];
        send_wedge_batch(ctx.sender, s.p, graph_->resolve_record(s.slot), s.split,
                         ctx.candidates, ctx.push_batches);
      }
    });
  }

  phase_metrics run_pull_phase() {
    std::vector<std::pair<graph::vertex_id, const std::vector<int>*>> pulls;
    pulls.reserve(pull_grants_.size());
    for (const auto& [q, ranks] : pull_grants_) pulls.emplace_back(q, &ranks);
    return send_phase(pulls.size(), [&](auto& ctx, std::size_t first, std::size_t last) {
      for (std::size_t k = first; k < last; ++k) {
        send_pulled_adjacency(ctx.sender, pulls[k].first, *pulls[k].second);
      }
    });
  }

  /// Ship Adjm+(q)'s in-window entries to every granted rank (encoded into
  /// each destination's buffer).
  template <typename Sender>
  void send_pulled_adjacency(Sender& snd, graph::vertex_id q,
                             const std::vector<int>& ranks) const {
    decltype(auto) rec_q = graph_->resolve_record(graph_->locate(q));
    bool windowed = false;
    if constexpr (window_capable) windowed = win_active_;
    if (windowed && admitted_from(rec_q, 0) == 0) return;  // nothing to close against
    decltype(auto) meta_q = pv(rec_q.meta);
    const auto fill = [&](typename batch_type::encoder& enc) { encode_from(enc, rec_q, 0); };
    for (const int dest : ranks) {
      snd.async(dest, pulled_adj_handler{}, handle_, q, vm_view(meta_q),
                batch_type::encode(fill));
    }
  }

  /// The dry-run target a decision or pulled list names.  A frame naming a
  /// q this rank never proposed for is corrupt (or hostile): refuse it.
  [[nodiscard]] per_target& target_of(const char* handler, graph::vertex_id q) {
    const auto it = targets_.find(q);
    if (it == targets_.end()) {
      throw std::runtime_error(std::string("survey ") + handler +
                               ": no dry-run target for q=" + std::to_string(q));
    }
    return it->second;
  }

  struct pulled_adj_handler {
    void operator()(comm::communicator& c, comm::dist_handle<self> h, graph::vertex_id q,
                    const wire_vm& meta_q, const batch_type& entries) {
      self& eng = c.resolve(h);
      // Stable reference: targets_ sees no inserts after the dry run.
      const per_target& t = eng.target_of("pulled_adj_handler", q);
      if (!eng.tasks_enabled_) {
        eng.process_pulled(q, meta_q, entries, t, *eng.own_);
        return;
      }
      auto payload = c.share_current_payload();
      eng.tasks_.push(
          [&eng, payload = std::move(payload), q, meta_q, entries, &t](fire_state& fs) {
            eng.process_pulled(q, meta_q, entries, t, fs);
          });
    }
  };

  comm::communicator* comm_;
  graph_type* graph_;
  plan_type* plan_;
  comm::dist_handle<self> handle_;

  targets_map targets_;
  std::unordered_map<graph::vertex_id, std::vector<int>> pull_grants_;
  /// The owning thread's fire state during a send phase (send_phase()).
  std::optional<fire_state> own_;

  int threads_ = 1;
  bool pin_ = false;  ///< resolved survey_options::pin_threads / TRIPOLL_PIN
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
