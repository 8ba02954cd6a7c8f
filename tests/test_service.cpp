// Tests for the resident survey service: protocol canonicalization, the
// snapshot content id, daemon round-trips, fused-batch bit-identity, the
// result cache, malformed-frame handling, graceful shutdown and a
// concurrent-client stress run.
//
// The daemon runs on the inproc runtime inside a std::thread; the test
// thread plays the clients over real Unix-domain sockets.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "comm/service_client.hpp"
#include "gen/presets.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/overlay.hpp"
#include "graph/snapshot.hpp"
#include "serial/hash.hpp"
#include "service/survey_service.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
namespace ts = tripoll::service;

namespace {

std::uint64_t edge_ts(tg::vertex_id u, tg::vertex_id v) {
  const auto lo = std::min(u, v);
  const auto hi = std::max(u, v);
  return tripoll::serial::hash_combine(tripoll::serial::splitmix64(lo), hi) % 1000000;
}

std::uint64_t vertex_label(tg::vertex_id v) {
  return tripoll::serial::splitmix64(v ^ 0x5EED) % 64;
}

/// Deterministic metadata-rich frozen preset, identical at any rank count.
tg::frozen_dodgr<std::uint64_t, std::uint64_t> build_frozen(tc::communicator& c) {
  tg::dodgr<std::uint64_t, std::uint64_t> g(c);
  tg::graph_builder<std::uint64_t, std::uint64_t> builder(c);
  tripoll::gen::for_preset_edges(c, "rmat", -4, [&](tg::vertex_id u, tg::vertex_id v) {
    builder.add_edge(u, v, edge_ts(u, v));
    if (u == v) return;  // a dropped self-loop must not create its vertex
    builder.add_vertex_meta(u, vertex_label(u));
    builder.add_vertex_meta(v, vertex_label(v));
  });
  builder.build_into(g);
  return tg::freeze(g);
}

ts::plan_unit unit(ts::unit_kind kind, std::uint64_t param = 0) {
  return ts::plan_unit{static_cast<std::uint64_t>(kind), param};
}

/// Run the fused-unit computation standalone (no daemon) and return rank
/// 0's globally-reduced results -- the bit-identity reference.
std::vector<ts::unit_result> reference_units(int ranks,
                                             const std::vector<ts::plan_unit>& units,
                                             std::uint64_t* triangles = nullptr) {
  std::vector<ts::unit_result> out;
  std::uint64_t tri = 0;
  tc::runtime::run(ranks, [&](tc::communicator& c) {
    auto g = build_frozen(c);
    std::uint64_t t = 0;
    auto r = ts::run_units(g, units, ts::kModePushPull, 0, &t);
    if (c.rank0()) {
      out = std::move(r);
      tri = t;
    }
  });
  if (triangles != nullptr) *triangles = tri;
  return out;
}

std::string fresh_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/tripoll-svc-test-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Serve a metadata-rich preset daemon on `ranks` inproc ranks in a
/// background thread and run `body(endpoint_spec)` as the client side.
/// `body` must stop the daemon (client shutdown or ts::request_stop()); as a
/// failure backstop the helper requests a stop before joining.
template <typename Body>
void with_daemon(int ranks, ts::service_options opts, Body&& body) {
  const std::string spec = "unix:" + fresh_socket_path();
  opts.endpoint_spec = spec;
  opts.install_signals = false;  // gtest owns the process's signal dispositions
  std::atomic<int> serve_rc{-1};
  std::thread daemon([&] {
    tc::runtime::run(ranks, [&](tc::communicator& c) {
      auto g = build_frozen(c);
      ts::survey_service d(g, opts);
      const int rc = d.serve();
      if (c.rank0()) serve_rc.store(rc);
    });
  });
  try {
    body(spec);
  } catch (...) {
    ts::request_stop();
    daemon.join();
    throw;
  }
  daemon.join();
  EXPECT_EQ(serve_rc.load(), 0);
}

ts::service_options sequential_opts() {
  ts::service_options o;
  o.window_ms = 0;  // batch every pending plan immediately
  o.max_batch = 1;
  return o;
}

}  // namespace

// --- protocol ----------------------------------------------------------------

TEST(ServiceProtocol, EndpointGrammar) {
  const auto ux = ts::endpoint::parse("unix:/tmp/x.sock");
  EXPECT_FALSE(ux.tcp);
  EXPECT_EQ(ux.path, "/tmp/x.sock");
  EXPECT_EQ(ux.describe(), "unix:/tmp/x.sock");

  const auto bare = ts::endpoint::parse("/tmp/y.sock");
  EXPECT_FALSE(bare.tcp);
  EXPECT_EQ(bare.path, "/tmp/y.sock");

  const auto tcp = ts::endpoint::parse("tcp:127.0.0.1:9001");
  EXPECT_TRUE(tcp.tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9001);
  EXPECT_EQ(tcp.describe(), "tcp:127.0.0.1:9001");

  EXPECT_THROW((void)ts::endpoint::parse("tcp:nohost"), std::invalid_argument);
  EXPECT_THROW((void)ts::endpoint::parse("tcp:h:99999"), std::invalid_argument);
  EXPECT_THROW((void)ts::endpoint::parse("unix:"), std::invalid_argument);
}

TEST(ServiceProtocol, CanonicalizeSortsDedupesAndPins) {
  ts::plan_request req;
  req.mode = ts::kModePushOnly;
  req.scope = ts::kScopeThreads;
  req.vertex_proj = ts::kProjIdentity;
  req.units = {unit(ts::unit_kind::closure_digest, 7),  // param zeroed
               unit(ts::unit_kind::count, 3),           // param zeroed
               unit(ts::unit_kind::hot_count, 9),
               unit(ts::unit_kind::count, 5)};          // dup after zeroing
  ts::canonicalize(req);
  ASSERT_EQ(req.units.size(), 3u);
  EXPECT_EQ(req.units[0], unit(ts::unit_kind::count));
  EXPECT_EQ(req.units[1], unit(ts::unit_kind::hot_count, 9));
  EXPECT_EQ(req.units[2], unit(ts::unit_kind::closure_digest));
  EXPECT_EQ(req.mode, ts::kModeDaemonDefault);
  EXPECT_EQ(req.scope, ts::kScopeGlobal);
  EXPECT_EQ(req.vertex_proj, ts::kProjAutomatic);

  // Two wordings of the same computation share one canonical key.
  ts::plan_request other;
  other.units = {unit(ts::unit_kind::hot_count, 9), unit(ts::unit_kind::count),
                 unit(ts::unit_kind::count), unit(ts::unit_kind::closure_digest)};
  ts::canonicalize(other);
  EXPECT_EQ(ts::canonical_plan_key(req, 42), ts::canonical_plan_key(other, 42));
  EXPECT_NE(ts::canonical_plan_key(req, 42), ts::canonical_plan_key(other, 43));
}

TEST(ServiceProtocol, ValidateRejectsBadPlans) {
  ts::error_code code{};
  ts::plan_request empty;
  EXPECT_NE(ts::validate_request(empty, 8, 8, code), "");
  EXPECT_EQ(code, ts::error_code::bad_request);

  ts::plan_request unknown;
  unknown.units = {ts::plan_unit{99, 0}};
  EXPECT_NE(ts::validate_request(unknown, 8, 8, code), "");
  EXPECT_EQ(code, ts::error_code::bad_request);

  ts::plan_request needs_meta;
  needs_meta.units = {unit(ts::unit_kind::hot_count, 5)};
  EXPECT_EQ(ts::validate_request(needs_meta, 8, 8, code), "");
  EXPECT_NE(ts::validate_request(needs_meta, 0, 0, code), "");
  EXPECT_EQ(code, ts::error_code::unsupported_unit);

  ts::plan_request plain;
  plain.units = {unit(ts::unit_kind::count)};
  EXPECT_EQ(ts::validate_request(plain, 0, 0, code), "");
}

TEST(ServiceProtocol, WindowUnitsCanonicalizeAndValidate) {
  const auto p = ts::pack_window_param(123, 456);
  EXPECT_EQ(ts::window_param_t0(p), 123u);
  EXPECT_EQ(ts::window_param_t1(p), 456u);

  // The window param carries [t0, t1) and must survive canonicalization;
  // equal windows dedup like any other unit.
  ts::plan_request req;
  req.units = {unit(ts::unit_kind::window, p), unit(ts::unit_kind::count, 9),
               unit(ts::unit_kind::window, p)};
  ts::canonicalize(req);
  ASSERT_EQ(req.units.size(), 2u);
  EXPECT_EQ(req.units[0], unit(ts::unit_kind::count));
  EXPECT_EQ(req.units[1], unit(ts::unit_kind::window, p));

  // Distinct windows are distinct units (and distinct cache keys).
  ts::plan_request two;
  two.units = {unit(ts::unit_kind::window, ts::pack_window_param(0, 10)),
               unit(ts::unit_kind::window, ts::pack_window_param(0, 20))};
  ts::canonicalize(two);
  EXPECT_EQ(two.units.size(), 2u);

  // Windows filter on stored edge metadata, so a metadata-free snapshot
  // cannot serve them.
  ts::error_code code{};
  ts::plan_request w;
  w.units = {unit(ts::unit_kind::window, p)};
  EXPECT_EQ(ts::validate_request(w, 8, 8, code), "");
  EXPECT_NE(ts::validate_request(w, 0, 0, code), "");
  EXPECT_EQ(code, ts::error_code::unsupported_unit);
}

// --- snapshot content id -----------------------------------------------------

TEST(SnapshotContentId, StableAcrossCodecsAndStamped) {
  const std::string raw_prefix = "/tmp/tripoll-svc-id-raw-" + std::to_string(::getpid());
  const std::string v3_prefix = "/tmp/tripoll-svc-id-v3-" + std::to_string(::getpid());
  std::uint64_t id_fresh = 0, id_raw_loaded = 0, id_v3_loaded = 0, id_peeked = 0;
  tc::runtime::run(1, [&](tc::communicator& c) {
    auto g = build_frozen(c);
    id_fresh = g.snapshot_id();
    (void)tg::save_snapshot(g, raw_prefix, tg::snapshot_codec::raw);
    (void)tg::save_snapshot(g, v3_prefix, tg::snapshot_codec::compressed);
    auto raw_loaded = tg::load_snapshot<std::uint64_t, std::uint64_t>(c, raw_prefix);
    auto v3_loaded = tg::load_snapshot<std::uint64_t, std::uint64_t>(c, v3_prefix);
    id_raw_loaded = raw_loaded.snapshot_id();  // adopted from the header
    id_v3_loaded = v3_loaded.snapshot_id();
    id_peeked = tg::peek_snapshot(tg::snapshot_rank_path(v3_prefix, 0)).content_id;
  });
  EXPECT_NE(id_fresh, 0u);
  EXPECT_EQ(id_raw_loaded, id_fresh);
  EXPECT_EQ(id_v3_loaded, id_fresh);
  EXPECT_EQ(id_peeked, id_fresh);
  // Raw saves stamp the same id into header word 12.
  EXPECT_EQ(tg::peek_snapshot(tg::snapshot_rank_path(raw_prefix, 0)).content_id,
            id_fresh);
  (void)std::remove(tg::snapshot_rank_path(raw_prefix, 0).c_str());
  (void)std::remove(tg::snapshot_rank_path(v3_prefix, 0).c_str());
}

// --- daemon round trips ------------------------------------------------------

TEST(SurveyService, RoundTripMatchesStandalone) {
  const std::vector<ts::plan_unit> units = {
      unit(ts::unit_kind::count), unit(ts::unit_kind::hot_count, 500000),
      unit(ts::unit_kind::closure_digest), unit(ts::unit_kind::max_label)};
  std::uint64_t ref_triangles = 0;
  const auto ref = reference_units(2, units, &ref_triangles);
  ASSERT_EQ(ref.size(), units.size());
  EXPECT_EQ(ref[0].fires, ref_triangles);

  with_daemon(2, sequential_opts(), [&](const std::string& spec) {
    tc::service_client client(spec);
    ts::plan_request req;
    req.units = units;
    const auto resp = client.submit(req);
    EXPECT_EQ(resp.engine_triangles, ref_triangles);
    ASSERT_EQ(resp.units.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(resp.units[i].kind, ref[i].kind) << "unit " << i;
      EXPECT_EQ(resp.units[i].param, ref[i].param) << "unit " << i;
      EXPECT_EQ(resp.units[i].fires, ref[i].fires) << "unit " << i;
      EXPECT_EQ(resp.units[i].value, ref[i].value) << "unit " << i;
    }
    client.shutdown();
  });
}

TEST(SurveyService, FusedBatchBitIdenticalToSequential) {
  // Four distinct plans.  Sequential daemon: one traversal per plan.
  const std::vector<std::vector<ts::plan_unit>> plans = {
      {unit(ts::unit_kind::count)},
      {unit(ts::unit_kind::hot_count, 500000)},
      {unit(ts::unit_kind::closure_digest), unit(ts::unit_kind::count)},
      {unit(ts::unit_kind::max_label)}};

  std::vector<std::vector<std::byte>> sequential(plans.size());
  with_daemon(1, sequential_opts(), [&](const std::string& spec) {
    tc::service_client client(spec);
    for (std::size_t i = 0; i < plans.size(); ++i) {
      ts::plan_request req;
      req.units = plans[i];
      sequential[i] = client.submit_raw(req);
    }
    client.shutdown();
  });

  // Fused daemon: a wide admission window holds all four plans until the
  // batch is full, so ONE traversal serves them all.
  ts::service_options fused_opts;
  fused_opts.window_ms = 10000;
  fused_opts.max_batch = plans.size();
  fused_opts.cache_capacity = 0;  // isolate fusion from caching
  std::vector<std::vector<std::byte>> fused(plans.size());
  with_daemon(1, fused_opts, [&](const std::string& spec) {
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < plans.size(); ++i) {
      clients.emplace_back([&, i] {
        tc::service_client client(spec);
        ts::plan_request req;
        req.units = plans[i];
        fused[i] = client.submit_raw(req);
      });
    }
    for (auto& t : clients) t.join();
    tc::service_client control(spec);
    const auto stats = control.stats();
    EXPECT_EQ(stats.plans_served, plans.size());
    EXPECT_EQ(stats.traversals, 1u);  // the whole batch shared one traversal
    EXPECT_EQ(stats.batches, 1u);
    EXPECT_EQ(stats.max_batch, plans.size());
    control.shutdown();
  });

  for (std::size_t i = 0; i < plans.size(); ++i) {
    EXPECT_EQ(fused[i], sequential[i]) << "plan " << i << " reply bytes diverged";
  }
}

TEST(SurveyService, CacheHitReturnsIdenticalBytesWithoutTraversal) {
  with_daemon(1, sequential_opts(), [&](const std::string& spec) {
    tc::service_client client(spec);
    ts::plan_request req;
    req.units = {unit(ts::unit_kind::count), unit(ts::unit_kind::closure_digest)};
    const auto cold = client.submit_raw(req);

    // A differently-worded equivalent plan must hit the same entry.
    ts::plan_request reworded;
    reworded.mode = ts::kModePushOnly;  // canonicalized away
    reworded.units = {unit(ts::unit_kind::closure_digest, 3),
                      unit(ts::unit_kind::count), unit(ts::unit_kind::count)};
    const auto hit = client.submit_raw(reworded);
    EXPECT_EQ(hit, cold);

    const auto stats = client.stats();
    EXPECT_EQ(stats.plans_served, 2u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.traversals, 1u);  // the hit did NOT re-traverse
    client.shutdown();
  });
}

TEST(SurveyService, LruEvictionReTraverses) {
  ts::service_options opts = sequential_opts();
  opts.cache_capacity = 1;
  with_daemon(1, opts, [&](const std::string& spec) {
    tc::service_client client(spec);
    ts::plan_request a, b;
    a.units = {unit(ts::unit_kind::count)};
    b.units = {unit(ts::unit_kind::max_label)};
    const auto a_cold = client.submit_raw(a);
    (void)client.submit_raw(b);          // evicts a
    const auto a_again = client.submit_raw(a);  // miss: re-traverses
    EXPECT_EQ(a_again, a_cold);          // but still the same bytes
    const auto stats = client.stats();
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 3u);
    EXPECT_EQ(stats.traversals, 3u);
    client.shutdown();
  });
}

TEST(SurveyService, WindowUnitsRoundTrip) {
  // Every preset edge timestamp lives in [0, 1000000), so the wide window
  // admits every triangle and must agree with the plain count.
  const auto wide = ts::pack_window_param(0, 1000000);
  const auto narrow = ts::pack_window_param(200000, 800000);
  const std::vector<ts::plan_unit> units = {unit(ts::unit_kind::count),
                                            unit(ts::unit_kind::window, wide),
                                            unit(ts::unit_kind::window, narrow)};
  std::uint64_t ref_triangles = 0;
  const auto ref = reference_units(2, units, &ref_triangles);
  ASSERT_EQ(ref.size(), units.size());
  EXPECT_EQ(ref[0].fires, ref_triangles);
  EXPECT_EQ(ref[1].fires, ref_triangles);          // all-inclusive window
  EXPECT_GT(ref[2].fires, 0u);                     // narrow window: strictly
  EXPECT_LT(ref[2].fires, ref[1].fires);           // between empty and all

  with_daemon(2, sequential_opts(), [&](const std::string& spec) {
    tc::service_client client(spec);
    ts::plan_request req;
    req.units = units;
    const auto resp = client.submit(req);
    EXPECT_EQ(resp.engine_triangles, ref_triangles);
    ASSERT_EQ(resp.units.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(resp.units[i].kind, ref[i].kind) << "unit " << i;
      EXPECT_EQ(resp.units[i].param, ref[i].param) << "unit " << i;
      EXPECT_EQ(resp.units[i].fires, ref[i].fires) << "unit " << i;
      EXPECT_EQ(resp.units[i].value, ref[i].value) << "unit " << i;
    }

    // A window-only plan runs no unwindowed traversal, and its reply must
    // not leak one from a co-batched plan: engine_triangles pins to 0.
    ts::plan_request only;
    only.units = {unit(ts::unit_kind::window, narrow)};
    const auto wresp = client.submit(only);
    EXPECT_EQ(wresp.engine_triangles, 0u);
    ASSERT_EQ(wresp.units.size(), 1u);
    EXPECT_EQ(wresp.units[0].fires, ref[2].fires);

    // Round one: base traversal + two distinct windows = 3.  Round two:
    // one window = 1.
    const auto stats = client.stats();
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.traversals, 4u);
    client.shutdown();
  });
}

TEST(SurveyService, OverlayInvalidationEvictsStaleEntries) {
  // Serve an overlay, mutate it between serve() sessions, and serve again
  // on the same resident core: the stale cache entry must be evicted (and
  // counted), and the re-submitted plan must see the new snapshot.
  ts::service_options opts = sequential_opts();
  const std::string spec = "unix:" + fresh_socket_path();
  opts.endpoint_spec = spec;
  opts.install_signals = false;
  std::atomic<int> phase{0};
  std::atomic<int> serve_rc{-1};
  std::thread daemon([&] {
    tc::runtime::run(1, [&](tc::communicator& c) {
      auto base = build_frozen(c);
      tg::overlay ov(base);
      ts::survey_service d(ov, opts);
      int rc = d.serve();
      // Mutate strictly between sessions (no follower is parked in a
      // serve() broadcast), closing one new triangle on fresh vertices.
      tg::overlay<std::uint64_t, std::uint64_t>::edge_batch batch = {
          {901, 902, 123}, {902, 903, 456}, {901, 903, 789}};
      (void)ov.ingest(batch, [](tg::vertex_id v) { return vertex_label(v); });
      phase.store(1);
      rc |= d.serve();
      if (c.rank0()) serve_rc.store(rc);
    });
  });
  try {
    ts::plan_request req;
    req.units = {unit(ts::unit_kind::count)};

    tc::service_client a(spec);
    const auto cold = a.submit_raw(req);
    const auto hit = a.submit_raw(req);
    EXPECT_EQ(hit, cold);
    const auto s1 = a.stats();
    EXPECT_EQ(s1.cache_hits, 1u);
    EXPECT_EQ(s1.invalidation_evictions, 0u);
    const std::uint64_t sid1 = s1.snapshot_id;
    a.shutdown();  // ends session one; the core (and its cache) stay resident

    while (phase.load() < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    tc::service_client b(spec);
    const auto warm = b.submit_raw(req);
    EXPECT_NE(warm, cold);  // new snapshot id, one more triangle
    const auto s2 = b.stats();
    EXPECT_NE(s2.snapshot_id, sid1);
    EXPECT_GE(s2.invalidation_evictions, 1u);
    EXPECT_EQ(s2.cache_hits, 1u);    // stats persist across sessions...
    EXPECT_EQ(s2.cache_misses, 2u);  // ...and the resubmit was a miss
    b.shutdown();
  } catch (...) {
    ts::request_stop();
    while (phase.load() < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ts::request_stop();
    daemon.join();
    throw;
  }
  daemon.join();
  EXPECT_EQ(serve_rc.load(), 0);
}

// --- robustness --------------------------------------------------------------

namespace {

/// Write raw bytes on a fresh connection; read back one frame header (and
/// body) if the daemon answers.  Returns reply type, or -1 on EOF.
int raw_exchange(const std::string& spec, const std::vector<std::byte>& wire,
                 std::vector<std::byte>* reply_body = nullptr) {
  const int fd = ts::dial_endpoint(ts::endpoint::parse(spec), 10.0);
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t w = ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  std::byte hdr[tripoll::serial::frame_header::kWireSize];
  std::size_t got = 0;
  while (got < sizeof(hdr)) {
    const ssize_t r = ::recv(fd, hdr + got, sizeof(hdr) - got, 0);
    if (r <= 0) {
      ::close(fd);
      return -1;
    }
    got += static_cast<std::size_t>(r);
  }
  const auto h = tripoll::serial::frame_header::decode(hdr);
  std::vector<std::byte> body(h.body_len);
  got = 0;
  while (got < body.size()) {
    const ssize_t r = ::recv(fd, body.data() + got, body.size() - got, 0);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  if (reply_body != nullptr) *reply_body = std::move(body);
  ::close(fd);
  return h.type;
}

std::vector<std::byte> frame_bytes(std::uint8_t type, std::uint32_t body_len,
                                   const std::vector<std::byte>& body = {}) {
  tripoll::serial::frame_header h;
  h.body_len = body_len;
  h.type = type;
  std::vector<std::byte> out;
  out.reserve(tripoll::serial::frame_header::kWireSize + body.size());
  out.resize(tripoll::serial::frame_header::kWireSize);
  h.encode(out.data());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

ts::error_code reply_error_code(const std::vector<std::byte>& body) {
  ts::error_reply err;
  tripoll::serial::buffer_reader r(body.data(), body.size());
  tripoll::serial::unpack(r, err);
  return static_cast<ts::error_code>(err.code);
}

}  // namespace

TEST(SurveyService, MalformedFramesAreRejectedWithoutKillingTheDaemon) {
  with_daemon(1, sequential_opts(), [&](const std::string& spec) {
    // Unknown frame type: ERROR(bad_frame), connection closed.
    std::vector<std::byte> body;
    EXPECT_EQ(raw_exchange(spec, frame_bytes(0x99, 0), &body),
              static_cast<int>(ts::frame_type::error));
    EXPECT_EQ(reply_error_code(body), ts::error_code::bad_frame);

    // Oversized announcement: refused before the body is read.
    EXPECT_EQ(raw_exchange(
                  spec, frame_bytes(static_cast<std::uint8_t>(
                                        ts::frame_type::submit_plan),
                                    static_cast<std::uint32_t>(ts::kMaxBodyBytes + 1)),
                  &body),
              static_cast<int>(ts::frame_type::error));
    EXPECT_EQ(reply_error_code(body), ts::error_code::oversized);

    // Garbage SUBMIT_PLAN body: ERROR(bad_request).
    const std::vector<std::byte> garbage(16, std::byte{0xEE});
    EXPECT_EQ(raw_exchange(spec,
                           frame_bytes(static_cast<std::uint8_t>(
                                           ts::frame_type::submit_plan),
                                       static_cast<std::uint32_t>(garbage.size()),
                                       garbage),
                           &body),
              static_cast<int>(ts::frame_type::error));
    EXPECT_EQ(reply_error_code(body), ts::error_code::bad_request);

    // A half-written header followed by a hangup must not wedge anything.
    {
      const int fd = ts::dial_endpoint(ts::endpoint::parse(spec), 10.0);
      const std::byte half[3] = {std::byte{1}, std::byte{2}, std::byte{3}};
      (void)::send(fd, half, sizeof(half), MSG_NOSIGNAL);
      ::close(fd);
    }

    // Unsupported unit on this snapshot type never reaches the engine.
    tc::service_client probe(spec);
    ts::plan_request bad;
    bad.units = {ts::plan_unit{77, 0}};
    EXPECT_THROW((void)probe.submit(bad), tc::service_error);

    // The daemon is still fully alive for a valid plan.
    ts::plan_request ok;
    ok.units = {unit(ts::unit_kind::count)};
    const auto resp = probe.submit(ok);
    EXPECT_GT(resp.units.at(0).fires, 0u);
    probe.shutdown();
  });
}

TEST(SurveyService, ShutdownDrainsQueuedPlansWithError) {
  ts::service_options opts;
  opts.window_ms = 60000;   // nothing batches on its own
  opts.max_batch = 1000;
  with_daemon(1, opts, [&](const std::string& spec) {
    std::atomic<bool> queued_got_shutdown_error{false};
    std::thread queued([&] {
      tc::service_client client(spec);
      ts::plan_request req;
      req.units = {unit(ts::unit_kind::count)};
      try {
        (void)client.submit(req);
      } catch (const tc::service_error& e) {
        queued_got_shutdown_error.store(e.code() == ts::error_code::shutting_down);
      }
    });
    // Let the submission reach the daemon's pending queue, then shut down.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    tc::service_client control(spec);
    control.shutdown();
    queued.join();
    EXPECT_TRUE(queued_got_shutdown_error.load());
  });
}

TEST(SurveyService, StopRequestDrainsLikeASignal) {
  // request_stop() is exactly what the SIGTERM/SIGINT handler calls, so this
  // covers the drain path; delivery of the OS signal itself is exercised by
  // tests/socket_smoke.sh against a real daemon process.
  ts::service_options opts = sequential_opts();
  with_daemon(1, opts, [&](const std::string& spec) {
    tc::service_client client(spec);
    ts::plan_request req;
    req.units = {unit(ts::unit_kind::count)};
    (void)client.submit(req);
    ts::request_stop();
  });
}

TEST(SurveyService, ConcurrentClientStress) {
  const std::vector<std::vector<ts::plan_unit>> pool = {
      {unit(ts::unit_kind::count)},
      {unit(ts::unit_kind::hot_count, 250000)},
      {unit(ts::unit_kind::hot_count, 750000)},
      {unit(ts::unit_kind::closure_digest)},
      {unit(ts::unit_kind::max_label), unit(ts::unit_kind::count)}};

  // One reference traversal over the union yields every unit's expected
  // numbers (unit results are independent of batch composition).
  std::vector<ts::plan_unit> all;
  for (const auto& p : pool) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const auto ref = reference_units(1, all);
  std::map<std::pair<std::uint64_t, std::uint64_t>, ts::unit_result> expected;
  for (const auto& r : ref) expected[{r.kind, r.param}] = r;

  ts::service_options opts;
  opts.window_ms = 1;
  opts.max_batch = 8;
  with_daemon(1, opts, [&](const std::string& spec) {
    constexpr int kClients = 8;
    constexpr int kRounds = 5;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClients; ++t) {
      clients.emplace_back([&, t] {
        tc::service_client client(spec);
        for (int round = 0; round < kRounds; ++round) {
          ts::plan_request req;
          req.units = pool[static_cast<std::size_t>(t + round) % pool.size()];
          const auto resp = client.submit(req);
          ts::plan_request canon = req;
          ts::canonicalize(canon);
          if (resp.units.size() != canon.units.size()) {
            mismatches.fetch_add(1);
            continue;
          }
          for (std::size_t i = 0; i < resp.units.size(); ++i) {
            const auto& want = expected.at({canon.units[i].kind, canon.units[i].param});
            if (resp.units[i].fires != want.fires ||
                resp.units[i].value != want.value) {
              mismatches.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : clients) th.join();
    EXPECT_EQ(mismatches.load(), 0);

    tc::service_client control(spec);
    const auto stats = control.stats();
    EXPECT_EQ(stats.plans_served, static_cast<std::uint64_t>(kClients * kRounds));
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.plans_served);
    // Every traversal came from a batch; caching plus fusion must have
    // collapsed the 40 plans into fewer traversals than plans.
    EXPECT_EQ(stats.traversals, stats.batches);
    EXPECT_LT(stats.traversals, stats.plans_served);
    control.shutdown();
  });
}

TEST(SurveyService, TcpEndpointServes) {
  // Port 0 lets the kernel choose; the daemon resolves it, but the client
  // needs a concrete port -- so bind a fixed high port derived from the pid
  // and retry on collision.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint16_t port =
        static_cast<std::uint16_t>(20000 + (::getpid() + attempt * 131) % 20000);
    bool served = false;
    ts::service_options tcp_opts = sequential_opts();
    tcp_opts.endpoint_spec = "tcp:127.0.0.1:" + std::to_string(port);
    tcp_opts.install_signals = false;
    std::atomic<int> serve_rc{-1};
    std::thread daemon([&] {
      tc::runtime::run(1, [&](tc::communicator& c) {
        auto g = build_frozen(c);
        ts::survey_service d(g, tcp_opts);
        serve_rc.store(d.serve());
      });
    });
    try {
      tc::service_client client(tcp_opts.endpoint_spec, 10.0);
      ts::plan_request req;
      req.units = {unit(ts::unit_kind::count)};
      const auto resp = client.submit(req);
      EXPECT_GT(resp.units.at(0).fires, 0u);
      client.shutdown();
      served = true;
    } catch (...) {
      ts::request_stop();
    }
    daemon.join();
    if (served) {
      EXPECT_EQ(serve_rc.load(), 0);
      return;
    }
  }
  FAIL() << "could not bind any candidate TCP port";
}
