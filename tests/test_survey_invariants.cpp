// Property/invariant tests for the survey engine: conservation of wedge
// work, determinism, robustness to configuration, and failure injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/distribute.hpp"
#include "gen/presets.hpp"
#include "gen/rmat.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
namespace cb = tripoll::callbacks;
using tripoll::survey_mode;

namespace {

void build_rmat(tc::communicator& c, tripoll::gen::plain_graph& g, std::uint32_t scale,
                std::uint64_t seed) {
  tripoll::gen::rmat_generator rmat(
      tripoll::gen::rmat_params{scale, 8, 0.57, 0.19, 0.19, seed, true});
  tg::graph_builder<tg::none, tg::none> builder(c);
  tripoll::gen::for_rank_slice(c, rmat.num_edges(), [&](std::uint64_t k) {
    const auto e = rmat.edge_at(k);
    builder.add_edge(e.u, e.v);
  });
  builder.build_into(g);
}

}  // namespace

// --- conservation: every wedge is checked exactly once -------------------------------

class WedgeConservation
    : public ::testing::TestWithParam<std::tuple<survey_mode, int>> {};

TEST_P(WedgeConservation, CandidatesEqualWedgeChecks) {
  const auto [mode, nranks] = GetParam();
  tc::runtime::run(nranks, [&](tc::communicator& c) {
    tripoll::gen::plain_graph g(c);
    build_rmat(c, g, 9, 77);
    auto fz = tripoll::graph::freeze(g);
    const auto census = g.census();
    cb::count_context ctx;
    const auto result = tripoll::triangle_survey(fz, cb::count_callback{}, ctx, {mode});
    // Whether a wedge travels in a push batch or is examined against a
    // pulled adjacency, it is examined exactly once.
    EXPECT_EQ(result.wedge_candidates, census.wedge_checks);
  });
}

INSTANTIATE_TEST_SUITE_P(
    ModesRanks, WedgeConservation,
    ::testing::Combine(::testing::Values(survey_mode::push_only, survey_mode::push_pull),
                       ::testing::Values(1, 2, 5, 8)));

// --- determinism -------------------------------------------------------------------

TEST(SurveyDeterminism, RepeatedRunsIdentical) {
  tc::runtime::run(4, [](tc::communicator& c) {
    tripoll::gen::plain_graph g(c);
    build_rmat(c, g, 10, 123);
    auto fz = tripoll::graph::freeze(g);
    std::uint64_t first_triangles = 0, first_candidates = 0;
    for (int run = 0; run < 3; ++run) {
      cb::count_context ctx;
      const auto result = tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                                                   {survey_mode::push_pull});
      if (run == 0) {
        first_triangles = result.triangles_found;
        first_candidates = result.wedge_candidates;
      } else {
        EXPECT_EQ(result.triangles_found, first_triangles);
        EXPECT_EQ(result.wedge_candidates, first_candidates);
      }
    }
  });
}

TEST(SurveyDeterminism, CountIndependentOfRankCount) {
  std::vector<std::uint64_t> counts;
  for (const int nranks : {1, 2, 3, 4, 8}) {
    std::uint64_t triangles = 0;
    tc::runtime::run(nranks, [&](tc::communicator& c) {
      tripoll::gen::plain_graph g(c);
      build_rmat(c, g, 10, 321);
      auto fz = tripoll::graph::freeze(g);
      cb::count_context ctx;
      tripoll::triangle_survey(fz, cb::count_callback{}, ctx, {survey_mode::push_pull});
      // global_count is a collective; only one rank may write the captured
      // result (every rank storing it concurrently is a data race).
      const auto total = ctx.global_count(c);
      if (c.rank0()) triangles = total;
    });
    counts.push_back(triangles);
  }
  for (std::size_t i = 1; i < counts.size(); ++i) EXPECT_EQ(counts[i], counts[0]);
}

// --- configuration robustness -----------------------------------------------------

class BufferSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BufferSweep, CountsInvariantUnderFlushThreshold) {
  tc::config cfg;
  cfg.buffer_capacity = GetParam();
  std::uint64_t triangles = 0;
  tc::runtime::run(
      4,
      [&](tc::communicator& c) {
        tripoll::gen::plain_graph g(c);
        build_rmat(c, g, 9, 55);
        auto fz = tripoll::graph::freeze(g);
        cb::count_context ctx;
        tripoll::triangle_survey(fz, cb::count_callback{}, ctx, {survey_mode::push_pull});
        const auto total = ctx.global_count(c);
        if (c.rank0()) triangles = total;
      },
      cfg);
  // Reference with default config.
  std::uint64_t reference = 0;
  tc::runtime::run(4, [&](tc::communicator& c) {
    tripoll::gen::plain_graph g(c);
    build_rmat(c, g, 9, 55);
    auto fz = tripoll::graph::freeze(g);
    cb::count_context ctx;
    tripoll::triangle_survey(fz, cb::count_callback{}, ctx, {survey_mode::push_pull});
    const auto total = ctx.global_count(c);
    if (c.rank0()) reference = total;
  });
  EXPECT_EQ(triangles, reference);
}

INSTANTIATE_TEST_SUITE_P(Capacities, BufferSweep,
                         ::testing::Values(std::size_t{32}, std::size_t{256},
                                           std::size_t{4096}, std::size_t{1048576}));

// --- push-pull vs push-only relationships ------------------------------------------

TEST(PushPullRelations, PullReducesVolumeOnHubHeavyGraph) {
  // The webcc12-like preset is the extreme pull-win case.
  const auto spec = tripoll::gen::standard_suite(-4)[3];
  tc::runtime::run(4, [&](tc::communicator& c) {
    tripoll::gen::plain_graph g(c);
    tripoll::gen::build_dataset(c, g, spec);
    auto fz = tripoll::graph::freeze(g);
    cb::count_context ctx_po, ctx_pp;
    const auto po = tripoll::triangle_survey(fz, cb::count_callback{}, ctx_po,
                                             {survey_mode::push_only});
    const auto pp = tripoll::triangle_survey(fz, cb::count_callback{}, ctx_pp,
                                             {survey_mode::push_pull});
    EXPECT_EQ(ctx_po.global_count(c), ctx_pp.global_count(c));
    EXPECT_LT(pp.total.volume_bytes, po.total.volume_bytes);
    EXPECT_GT(pp.pulls_granted, 0u);
  });
}

TEST(PushPullRelations, PhaseAccountingConsistent) {
  tc::runtime::run(3, [](tc::communicator& c) {
    tripoll::gen::plain_graph g(c);
    build_rmat(c, g, 9, 99);
    auto fz = tripoll::graph::freeze(g);
    cb::count_context ctx;
    const auto r = tripoll::triangle_survey(fz, cb::count_callback{}, ctx,
                                            {survey_mode::push_pull});
    EXPECT_EQ(r.total.volume_bytes,
              r.dry_run.volume_bytes + r.push.volume_bytes + r.pull.volume_bytes);
    EXPECT_EQ(r.total.messages,
              r.dry_run.messages + r.push.messages + r.pull.messages);
    EXPECT_GE(r.total.seconds,
              0.0);  // phases measure max-over-ranks, sum may exceed total
  });
}

// --- failure injection ----------------------------------------------------------------

namespace {

struct throwing_callback {
  void operator()(const tripoll::triangle_view<tg::none, tg::none>& /*view*/,
                  cb::count_context& ctx) const {
    if (++ctx.triangles == 3) {
      throw std::runtime_error("callback failure injection");
    }
  }
};

}  // namespace

TEST(FailureInjection, CallbackExceptionAbortsRun) {
  try {
    tc::runtime::run(3, [](tc::communicator& c) {
      tripoll::gen::plain_graph g(c);
      build_rmat(c, g, 8, 7);
      auto fz = tripoll::graph::freeze(g);
      cb::count_context ctx;
      tripoll::triangle_survey(fz, throwing_callback{}, ctx, {survey_mode::push_pull});
    });
    FAIL() << "expected the injected failure to propagate";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.find("failure injection") != std::string::npos ||
                what.find("aborted") != std::string::npos)
        << what;
  }
}

TEST(FailureInjection, WatchdogDiagnosesMismatchedCollectives) {
  // Rank 1 returns immediately; rank 0 enters an extra barrier nobody else
  // will join.  The watchdog must convert the hang into an error.
  tc::config cfg;
  cfg.barrier_timeout_seconds = 0.3;
  try {
    tc::runtime::run(
        2,
        [](tc::communicator& c) {
          if (c.rank0()) {
            c.barrier();  // pairs with rank 1's implicit final barrier
            c.barrier();  // unmatched: rank 1's thread has already finished
          }
        },
        cfg);
    FAIL() << "expected the watchdog to fire";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos) << e.what();
  }
}
