// Tests for distributed edge-list file ingestion.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "comm/runtime.hpp"
#include "core/callbacks.hpp"
#include "core/survey.hpp"
#include "graph/builder.hpp"
#include "graph/frozen.hpp"
#include "graph/io.hpp"

namespace tc = tripoll::comm;
namespace tg = tripoll::graph;

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& contents) {
    static std::atomic<int> counter{0};
    path_ = std::filesystem::temp_directory_path() /
            ("tripoll_io_test_" + std::to_string(counter.fetch_add(1)) + "_" +
             std::to_string(::getpid()) + ".txt");
    std::ofstream out(path_, std::ios::binary);
    out << contents;
  }
  ~TempFile() { std::filesystem::remove(path_); }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace

TEST(ParseEdgeLine, BasicForms) {
  bool malformed = false;
  auto e = tg::parse_edge_line("1 2", &malformed);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->u, 1u);
  EXPECT_EQ(e->v, 2u);
  EXPECT_FALSE(e->weight.has_value());
  EXPECT_FALSE(malformed);

  e = tg::parse_edge_line("10\t20\t12345", &malformed);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->weight.value(), 12345u);

  e = tg::parse_edge_line("  7   8  ", &malformed);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->u, 7u);
}

TEST(ParseEdgeLine, CommentsAndBlanks) {
  bool malformed = false;
  EXPECT_FALSE(tg::parse_edge_line("# a comment", &malformed).has_value());
  EXPECT_FALSE(malformed);
  EXPECT_FALSE(tg::parse_edge_line("% matrix-market comment", &malformed).has_value());
  EXPECT_FALSE(malformed);
  EXPECT_FALSE(tg::parse_edge_line("", &malformed).has_value());
  EXPECT_FALSE(malformed);
  EXPECT_FALSE(tg::parse_edge_line("   ", &malformed).has_value());
  EXPECT_FALSE(malformed);
}

TEST(ParseEdgeLine, MalformedFlagged) {
  bool malformed = false;
  EXPECT_FALSE(tg::parse_edge_line("abc def", &malformed).has_value());
  EXPECT_TRUE(malformed);
  EXPECT_FALSE(tg::parse_edge_line("1", &malformed).has_value());
  EXPECT_TRUE(malformed);
  EXPECT_FALSE(tg::parse_edge_line("1 2 xyz", &malformed).has_value());
  EXPECT_TRUE(malformed);
}

TEST(ParseEdgeLine, WindowsLineEndings) {
  bool malformed = false;
  auto e = tg::parse_edge_line("3 4\r", &malformed);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->v, 4u);
}

TEST(ReadEdgeList, MissingFileThrows) {
  tc::runtime::run(1, [](tc::communicator& c) {
    EXPECT_THROW(tg::read_edge_list(c, "/nonexistent/missing.txt",
                                    [](const tg::parsed_edge&) {}),
                 std::runtime_error);
  });
}

class ReadEdgeListSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReadEdgeListSweep, EveryLineParsedExactlyOnce) {
  const int nranks = GetParam();
  // A file with varied line lengths so slice boundaries land mid-line.
  std::string contents = "# header comment\n";
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t u = rng() % 100000;
    const std::uint64_t v = rng() % 1000;
    expected.emplace_back(u, v);
    contents += std::to_string(u) + " " + std::to_string(v) + "\n";
  }
  contents += "999999 1\n";  // line without special role
  expected.emplace_back(999999, 1);
  const TempFile file(contents);

  std::mutex mutex;
  std::multiset<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::atomic<std::uint64_t> total_edges{0};
  tc::runtime::run(nranks, [&](tc::communicator& c) {
    const auto stats = tg::read_edge_list(c, file.path(), [&](const tg::parsed_edge& e) {
      const std::lock_guard lock(mutex);
      seen.emplace(e.u, e.v);
    });
    total_edges.fetch_add(stats.edges);
    EXPECT_EQ(stats.malformed, 0u);
  });

  EXPECT_EQ(total_edges.load(), expected.size());
  const std::multiset<std::pair<std::uint64_t, std::uint64_t>> want(expected.begin(),
                                                                    expected.end());
  EXPECT_EQ(seen, want);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReadEdgeListSweep, ::testing::Values(1, 2, 3, 7, 16));

/// Exactly-once coverage harness: parse `contents` under `nranks` ranks and
/// compare the multiset of edges (and the exact edge/malformed totals)
/// against expectations, so duplicated and dropped lines both fail.
void expect_exactly_once(
    const std::string& contents, int nranks,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& expected,
    std::uint64_t expected_malformed = 0) {
  const TempFile file(contents);
  std::mutex mutex;
  std::multiset<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::atomic<std::uint64_t> total_edges{0};
  std::atomic<std::uint64_t> total_malformed{0};
  tc::runtime::run(nranks, [&](tc::communicator& c) {
    const auto stats = tg::read_edge_list(c, file.path(), [&](const tg::parsed_edge& e) {
      const std::lock_guard lock(mutex);
      seen.emplace(e.u, e.v);
    });
    total_edges.fetch_add(stats.edges);
    total_malformed.fetch_add(stats.malformed);
  });
  EXPECT_EQ(total_edges.load(), expected.size())
      << "nranks=" << nranks << " contents=" << ::testing::PrintToString(contents);
  EXPECT_EQ(total_malformed.load(), expected_malformed);
  const std::multiset<std::pair<std::uint64_t, std::uint64_t>> want(expected.begin(),
                                                                    expected.end());
  EXPECT_EQ(seen, want) << "nranks=" << nranks;
}

class ReadEdgeListTinyFiles : public ::testing::TestWithParam<int> {};

TEST_P(ReadEdgeListTinyFiles, FilesSmallerThanRankCount) {
  const int nranks = GetParam();
  // Each file is shorter (in bytes) than the rank count, so most byte
  // slices are empty and several ranks share begin == 0.
  expect_exactly_once("1 2\n", nranks, {{1, 2}});
  expect_exactly_once("1 2", nranks, {{1, 2}});          // no trailing newline
  expect_exactly_once("1 2\n3 4\n", nranks, {{1, 2}, {3, 4}});
  expect_exactly_once("1 2\n3 4", nranks, {{1, 2}, {3, 4}});
  expect_exactly_once("\n\n1 2\n\n", nranks, {{1, 2}});  // blank lines
  expect_exactly_once("", nranks, {});
  expect_exactly_once("\n", nranks, {});
}

TEST_P(ReadEdgeListTinyFiles, CrlfLineEndings) {
  const int nranks = GetParam();
  expect_exactly_once("1 2\r\n3 4\r\n", nranks, {{1, 2}, {3, 4}});
  expect_exactly_once("1 2\r\n3 4\r", nranks, {{1, 2}, {3, 4}});  // CR, no final LF
  expect_exactly_once("# c\r\n5 6 77\r\n", nranks, {{5, 6}});
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ReadEdgeListTinyFiles,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(ReadEdgeList, CrlfSweepWithSliceBoundariesInsideLines) {
  // 120 CRLF lines of varying width: byte slices land between '\r' and
  // '\n', inside line bodies, and at line starts for every rank count.
  std::string contents;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const std::uint64_t u = i * i % 1000;
    const std::uint64_t v = i;
    expected.emplace_back(u, v);
    contents += std::to_string(u) + " " + std::to_string(v) + "\r\n";
  }
  for (const int nranks : {1, 2, 3, 7, 16, 64}) {
    expect_exactly_once(contents, nranks, expected);
  }
}

TEST(ReadEdgeList, FinalLineWithoutNewlineSweep) {
  // The unterminated final line must be parsed exactly once whichever
  // rank's slice covers its start.
  std::string contents = "# head\n";
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
  for (std::uint64_t i = 0; i < 57; ++i) {
    expected.emplace_back(i, i + 1);
    contents += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  }
  contents += "100000 200000";  // no trailing '\n'
  expected.emplace_back(100000, 200000);
  for (const int nranks : {1, 2, 3, 4, 5, 8, 13, 32}) {
    expect_exactly_once(contents, nranks, expected);
  }
}

TEST(ReadEdgeList, MalformedLinesCountedOncePerRankSweep) {
  const std::string contents = "1 2\nbogus line\n3 4\n5\n6 7\n";
  for (const int nranks : {1, 2, 3, 6, 12}) {
    expect_exactly_once(contents, nranks, {{1, 2}, {3, 4}, {6, 7}}, 2);
  }
}

TEST(ReadEdgeList, NoTrailingNewline) {
  const TempFile file("1 2\n3 4");  // last line lacks '\n'
  std::atomic<std::uint64_t> edges{0};
  tc::runtime::run(3, [&](tc::communicator& c) {
    const auto stats =
        tg::read_edge_list(c, file.path(), [&](const tg::parsed_edge&) {});
    edges.fetch_add(stats.edges);
  });
  EXPECT_EQ(edges.load(), 2u);
}

TEST(ReadEdgeList, EmptyFile) {
  const TempFile file("");
  tc::runtime::run(2, [&](tc::communicator& c) {
    const auto stats =
        tg::read_edge_list(c, file.path(), [&](const tg::parsed_edge&) {});
    EXPECT_EQ(stats.edges, 0u);
  });
}

TEST(ReadEdgeList, EndToEndGraphFromFile) {
  // Ingest a triangle + pendant from disk, survey it, check the count.
  const TempFile file("# tiny graph\n0 1 100\n1 2 164\n0 2 1000\n2 3 5\n");
  tc::runtime::run(4, [&](tc::communicator& c) {
    tg::graph_builder<tg::none, std::uint64_t, tg::merge::keep_least> builder(c);
    tg::read_edge_list(c, file.path(), [&](const tg::parsed_edge& e) {
      builder.add_edge(e.u, e.v, e.weight.value_or(0));
    });
    tg::dodgr<tg::none, std::uint64_t> g(c);
    builder.build_into(g);
    auto fz = tripoll::graph::freeze(g);
    EXPECT_EQ(g.census().num_directed_edges, 8u);

    tripoll::callbacks::count_context ctx;
    tripoll::triangle_survey(fz, tripoll::callbacks::count_callback{}, ctx);
    EXPECT_EQ(ctx.global_count(c), 1u);
  });
}

// --- parallel ingest --------------------------------------------------------

namespace {

using edge_seq = std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>;

/// Parse `path` under `nranks` ranks with `opts`, returning each rank's
/// ORDERED edge sequence (weights folded in; absent weight recorded as a
/// sentinel so "1 2" and "1 2 0" stay distinguishable) plus summed stats.
std::vector<edge_seq> ingest_sequences(const std::string& path, int nranks,
                                       const tg::ingest_options& opts,
                                       tg::ingest_stats* agg = nullptr) {
  std::vector<edge_seq> out(static_cast<std::size_t>(nranks));
  std::mutex mutex;
  tg::ingest_stats total;
  tc::runtime::run(nranks, [&](tc::communicator& c) {
    auto& mine = out[static_cast<std::size_t>(c.rank())];
    const auto stats = tg::read_edge_list(
        c, path,
        [&](const tg::parsed_edge& e) {
          mine.emplace_back(e.u, e.v, e.weight.value_or(~0ull));
        },
        opts);
    const std::lock_guard lock(mutex);
    total.lines += stats.lines;
    total.edges += stats.edges;
    total.malformed += stats.malformed;
    total.bytes += stats.bytes;
  });
  if (agg != nullptr) *agg = total;
  return out;
}

}  // namespace

/// The tentpole contract: at every thread count each rank's edge SEQUENCE
/// (not just multiset) is bit-identical to the serial read, across the
/// line-ending and boundary shapes that stress the sub-slice ownership
/// rule.
TEST(ParallelIngest, BitIdenticalSequencesAcrossThreadCounts) {
  struct ingest_case {
    const char* name;
    std::string contents;
  };
  std::string crlf, bare, mixed;
  for (std::uint64_t i = 0; i < 160; ++i) {
    crlf += std::to_string(i * 37 % 1000) + " " + std::to_string(i) + "\r\n";
    bare += std::to_string(i) + "\t" + std::to_string(i * i % 777) + " " +
            std::to_string(i * 13) + "\n";
    mixed += (i % 9 == 4 ? std::string("bogus line ") + std::to_string(i)
                         : std::to_string(i) + " " + std::to_string(i + 1)) +
             "\n";
  }
  bare.pop_back();  // final line unterminated
  const std::vector<ingest_case> cases = {
      {"crlf", crlf},
      {"no_trailing_newline", bare},
      {"malformed_lines", mixed},
      {"smaller_than_thread_count", "1 2\n"},
      {"empty", ""},
  };
  for (const auto& tcase : cases) {
    const TempFile file(tcase.contents);
    for (const int nranks : {1, 3}) {
      tg::ingest_stats serial_stats;
      const auto serial =
          ingest_sequences(file.path(), nranks, tg::ingest_options{1, false},
                           &serial_stats);
      for (const int threads : {2, 4, 8}) {
        tg::ingest_stats par_stats;
        const auto par = ingest_sequences(
            file.path(), nranks, tg::ingest_options{threads, false}, &par_stats);
        EXPECT_EQ(par, serial) << tcase.name << " nranks=" << nranks
                               << " threads=" << threads;
        EXPECT_EQ(par_stats.lines, serial_stats.lines) << tcase.name;
        EXPECT_EQ(par_stats.edges, serial_stats.edges) << tcase.name;
        EXPECT_EQ(par_stats.malformed, serial_stats.malformed) << tcase.name;
        EXPECT_EQ(par_stats.bytes, serial_stats.bytes) << tcase.name;
      }
    }
  }
}

TEST(ParallelIngest, ThreadCountFromEnvironment) {
  // opts.threads == 0 defers to TRIPOLL_THREADS; the sequence contract
  // holds regardless of where the count came from.
  std::string contents;
  for (std::uint64_t i = 0; i < 64; ++i) {
    contents += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  }
  const TempFile file(contents);
  const auto serial = ingest_sequences(file.path(), 1, tg::ingest_options{1, false});
  ::setenv("TRIPOLL_THREADS", "4", 1);
  const auto par = ingest_sequences(file.path(), 1, tg::ingest_options{0, false});
  ::unsetenv("TRIPOLL_THREADS");
  EXPECT_EQ(par, serial);
}

TEST(ParallelIngest, DirectIoFallsBackWhereUnsupported) {
  // temp_directory_path is tmpfs on most CI runners, which rejects
  // O_DIRECT: the reader must fall back to buffered reads and produce the
  // identical sequence (and identical stats) either way.
  std::string contents = "# direct-io probe\n";
  for (std::uint64_t i = 0; i < 300; ++i) {
    contents += std::to_string(i * 7 % 500) + " " + std::to_string(i) + "\n";
  }
  const TempFile file(contents);
  tg::ingest_stats buffered_stats, direct_stats;
  const auto buffered = ingest_sequences(file.path(), 2, tg::ingest_options{2, false},
                                         &buffered_stats);
  const auto direct =
      ingest_sequences(file.path(), 2, tg::ingest_options{2, true}, &direct_stats);
  EXPECT_EQ(direct, buffered);
  EXPECT_EQ(direct_stats.edges, buffered_stats.edges);
  EXPECT_EQ(direct_stats.bytes, buffered_stats.bytes);
}

TEST(ParallelIngest, DirectIoEnvironmentOptIn) {
  EXPECT_FALSE(tg::resolve_direct_io(false));
  EXPECT_TRUE(tg::resolve_direct_io(true));
  ::setenv("TRIPOLL_DIRECT_IO", "1", 1);
  EXPECT_TRUE(tg::resolve_direct_io(false));
  ::setenv("TRIPOLL_DIRECT_IO", "0", 1);
  EXPECT_FALSE(tg::resolve_direct_io(false));
  ::unsetenv("TRIPOLL_DIRECT_IO");
}

TEST(EdgeListWriter, RoundTripsThroughReader) {
  const auto path = (std::filesystem::temp_directory_path() /
                     ("tripoll_writer_test_" + std::to_string(::getpid()) + ".txt"))
                        .string();
  {
    tg::edge_list_writer writer(path);
    writer.write(1, 2);
    writer.write(3, 4, 99);
  }
  std::atomic<std::uint64_t> edges{0};
  std::atomic<std::uint64_t> weighted{0};
  tc::runtime::run(2, [&](tc::communicator& c) {
    tg::read_edge_list(c, path, [&](const tg::parsed_edge& e) {
      edges.fetch_add(1);
      if (e.weight.has_value()) weighted.fetch_add(1);
    });
  });
  std::filesystem::remove(path);
  EXPECT_EQ(edges.load(), 2u);
  EXPECT_EQ(weighted.load(), 1u);
}
