// End-to-end integration tests: full generator -> builder -> survey
// pipelines must be bit-identical across rank counts and modes, and the
// dodgr visit API must compose with surveys.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "gen/presets.hpp"
#include "gen/temporal.hpp"
#include "gen/web.hpp"
#include "graph/frozen.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;
namespace cb = tripoll::callbacks;
namespace gen = tripoll::gen;

namespace {

struct temporal_fingerprint {
  tg::graph_census census{};
  std::map<cb::closure_bin, std::uint64_t> histogram;
  std::uint64_t triangles = 0;

  bool operator==(const temporal_fingerprint& other) const {
    return census.num_vertices == other.census.num_vertices &&
           census.num_directed_edges == other.census.num_directed_edges &&
           census.max_degree == other.census.max_degree &&
           census.max_out_degree == other.census.max_out_degree &&
           census.wedge_checks == other.census.wedge_checks &&
           histogram == other.histogram && triangles == other.triangles;
  }
};

temporal_fingerprint run_temporal_pipeline(int nranks, tripoll::survey_mode mode) {
  temporal_fingerprint fp;
  gen::temporal_params params;
  params.scale = 10;
  params.edge_factor = 12;
  tc::runtime::run(nranks, [&](tc::communicator& c) {
    gen::temporal_graph g(c);
    gen::build_temporal_graph(c, g, params);
    auto fz = tripoll::graph::freeze(g);
    tc::counting_set<cb::closure_bin> counters(c);
    cb::closure_time_context ctx{&counters};
    const auto result = tripoll::triangle_survey(fz, cb::closure_time_callback{}, ctx,
                                                 {mode});
    counters.finalize();
    auto gathered = counters.gather_all();
    if (c.rank0()) {
      fp.census = g.census();
      fp.histogram = std::move(gathered);
      fp.triangles = result.triangles_found;
    } else {
      (void)g.census();
    }
  });
  return fp;
}

}  // namespace

TEST(Integration, TemporalPipelineIdenticalAcrossRankCounts) {
  const auto reference = run_temporal_pipeline(1, tripoll::survey_mode::push_pull);
  ASSERT_GT(reference.triangles, 0u);
  for (const int nranks : {2, 3, 6}) {
    const auto fp = run_temporal_pipeline(nranks, tripoll::survey_mode::push_pull);
    EXPECT_TRUE(fp == reference) << "rank count " << nranks;
  }
}

TEST(Integration, TemporalPipelineIdenticalAcrossModes) {
  const auto pp = run_temporal_pipeline(4, tripoll::survey_mode::push_pull);
  const auto po = run_temporal_pipeline(4, tripoll::survey_mode::push_only);
  EXPECT_TRUE(pp == po);
}

TEST(Integration, WebPipelineFqdnTotalsStableAcrossRankCounts) {
  gen::web_params params;
  params.scale = 10;
  std::vector<std::uint64_t> distinct_counts;
  std::vector<std::uint64_t> tuple_counts;
  for (const int nranks : {1, 3, 5}) {
    tc::runtime::run(nranks, [&](tc::communicator& c) {
      gen::web_graph g(c);
      gen::build_web_graph(c, g, params);
      auto fz = tripoll::graph::freeze(g);
      tc::counting_set<cb::fqdn_tuple> counters(c);
      cb::fqdn_tuple_context ctx{&counters};
      tripoll::triangle_survey(fz, cb::fqdn_tuple_callback{}, ctx);
      counters.finalize();
      const auto distinct = c.all_reduce_sum(ctx.distinct_fqdn_triangles);
      const auto tuples = counters.global_size();
      if (c.rank0()) {
        distinct_counts.push_back(distinct);
        tuple_counts.push_back(tuples);
      }
    });
  }
  ASSERT_EQ(distinct_counts.size(), 3u);
  EXPECT_EQ(distinct_counts[1], distinct_counts[0]);
  EXPECT_EQ(distinct_counts[2], distinct_counts[0]);
  EXPECT_EQ(tuple_counts[1], tuple_counts[0]);
  EXPECT_EQ(tuple_counts[2], tuple_counts[0]);
}

// --- dodgr record views ------------------------------------------------------------

TEST(Integration, DodgrRecordsLiveOnOwner) {
  tc::runtime::run(3, [](tc::communicator& c) {
    gen::dataset_spec spec = gen::livejournal_like(-8);
    gen::plain_graph g(c);
    gen::build_dataset(c, g, spec);

    // Every built record sits on its vertex's owner rank, once.
    std::uint64_t local = 0;
    g.for_all_local([&](const tg::vertex_id& v, const auto& rec) {
      EXPECT_EQ(g.owner(v), c.rank());
      const auto found = g.local_find(v);
      ASSERT_TRUE(found);
      EXPECT_EQ(found->degree, rec.degree);
      EXPECT_EQ(found->out_degree(), rec.out_degree());
      ++local;
    });
    EXPECT_EQ(local, g.local_num_vertices());
    EXPECT_EQ(c.all_reduce_sum(local), g.census().num_vertices);
  });
}

TEST(Integration, EnumerationToFilesCoversAllTriangles) {
  // Sec. 4.5 output mode: each rank streams its discovered triangles to a
  // private file; the union must be exactly the triangle set.
  const auto dir = std::filesystem::temp_directory_path();
  const std::string stem =
      (dir / ("tripoll_enum_" + std::to_string(::getpid()) + "_")).string();
  const int nranks = 3;
  tc::runtime::run(nranks, [&](tc::communicator& c) {
    gen::plain_graph g(c);
    gen::dataset_spec spec = gen::livejournal_like(-7);
    gen::build_dataset(c, g, spec);
    auto fz = tripoll::graph::freeze(g);

    const std::string path = stem + std::to_string(c.rank()) + ".txt";
    cb::enumerate_context ctx;
    ctx.out = std::fopen(path.c_str(), "w");
    ASSERT_NE(ctx.out, nullptr);
    tripoll::triangle_survey(fz, cb::enumerate_callback{}, ctx);
    std::fclose(ctx.out);

    // Cross-check: total rows equal the global triangle count.
    cb::count_context count_ctx;
    tripoll::triangle_survey(fz, cb::count_callback{}, count_ctx);
    const auto expected = count_ctx.global_count(c);
    EXPECT_EQ(c.all_reduce_sum(ctx.rows), expected);
  });

  // Parse the per-rank files back and verify uniqueness.
  std::set<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>> seen;
  std::uint64_t rows = 0;
  for (int r = 0; r < nranks; ++r) {
    const std::string path = stem + std::to_string(r) + ".txt";
    std::ifstream in(path);
    std::uint64_t p = 0, q = 0, t = 0;
    while (in >> p >> q >> t) {
      ++rows;
      EXPECT_TRUE(seen.insert({p, q, t}).second) << "duplicate triangle row";
    }
    std::filesystem::remove(path);
  }
  EXPECT_EQ(rows, seen.size());
  EXPECT_GT(rows, 0u);
}

TEST(Integration, LocalFindOfUnknownVertexIsEmpty) {
  tc::runtime::run(2, [](tc::communicator& c) {
    gen::plain_graph g(c);
    gen::dataset_spec spec = gen::livejournal_like(-9);
    gen::build_dataset(c, g, spec);
    EXPECT_FALSE(g.local_find(0xFFFFFFFFFFFFull));  // id outside the graph
    EXPECT_GT(g.census().num_vertices, 0u);
  });
}
