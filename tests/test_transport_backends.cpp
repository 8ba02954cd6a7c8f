// Backend-conformance suite: every scenario runs against BOTH transport
// backends -- the threads-as-ranks inproc backend and the one-process-per-
// rank socket backend -- and must behave identically.  Because socket ranks
// are forked child processes, assertions run INSIDE the ranks and failures
// surface as thrown exceptions (child exit status), which the parent-side
// EXPECT_NO_THROW turns into test failures; gtest macros would be invisible
// from a child process.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "comm/column_exchange.hpp"
#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"
#include "serial/serialize.hpp"

namespace tc = tripoll::comm;
namespace ts = tripoll::serial;

namespace {

/// In-rank check that works from forked ranks: throw instead of EXPECT.
void require(bool cond, const std::string& what) {
  if (!cond) throw std::runtime_error("conformance check failed: " + what);
}

class BackendConformance : public ::testing::TestWithParam<tc::backend_kind> {
 protected:
  template <typename F>
  void run_ranks(int nranks, F&& fn, tc::config cfg = {}) {
    if (GetParam() == tc::backend_kind::inproc) {
      (void)tc::runtime::run(nranks, std::forward<F>(fn), cfg);
    } else {
      tc::runtime::run_socket_local(nranks, std::forward<F>(fn), cfg);
    }
  }
};

struct tally_handler {
  void operator()(tc::communicator& c, tc::dist_handle<std::uint64_t> h, std::uint64_t v) {
    c.resolve(h) += v;
  }
};

struct seq_state {
  std::vector<std::vector<std::uint64_t>> by_source;
};

struct seq_handler {
  void operator()(tc::communicator& c, tc::dist_handle<seq_state> h, int from,
                  std::uint64_t seq) {
    c.resolve(h).by_source[static_cast<std::size_t>(from)].push_back(seq);
  }
};

struct relay_handler {
  void operator()(tc::communicator& c, tc::dist_handle<std::uint64_t> h,
                  std::uint32_t hops, std::uint64_t token) {
    c.resolve(h) += token;
    if (hops > 0) {
      c.async((c.rank() + static_cast<int>(token % 3) + 1) % c.size(), relay_handler{},
              h, hops - 1, token + 1);
    }
  }
};

struct sum_vector_handler {
  void operator()(tc::communicator& c, tc::dist_handle<std::uint64_t> h,
                  const std::vector<std::uint64_t>& v) {
    c.resolve(h) += std::accumulate(v.begin(), v.end(), std::uint64_t{0});
  }
};

struct view_tally {
  std::uint64_t span_sum = 0;
  std::uint64_t span_elems = 0;
  std::string text;
};

/// Zero-copy arguments: wire_span and string_view point into the drained
/// transport payload for the duration of the handler.
struct view_handler {
  void operator()(tc::communicator& c, tc::dist_handle<view_tally> h,
                  const ts::wire_span<std::uint64_t>& span, std::string_view text) {
    auto& t = c.resolve(h);
    for (const std::uint64_t v : span) t.span_sum += v;
    t.span_elems += span.size();
    t.text.append(text);  // copy out: the view dies with the handler
  }
};

}  // namespace

TEST_P(BackendConformance, AllToAllCountsExact) {
  run_ranks(4, [](tc::communicator& c) {
    std::uint64_t tally = 0;
    auto h = c.register_object(tally);
    c.barrier();
    for (int dest = 0; dest < c.size(); ++dest) {
      for (int i = 0; i < 500; ++i) {
        c.async(dest, tally_handler{}, h, static_cast<std::uint64_t>(c.rank() + 1));
      }
    }
    c.barrier();
    // Rank r receives 500 * (1+2+3+4) = 5000.
    require(tally == 5000, "per-rank tally " + std::to_string(tally));
    const auto total = c.all_reduce_sum(tally);
    require(total == 20000, "global tally " + std::to_string(total));
  });
}

TEST_P(BackendConformance, OutOfOrderDrainKeepsPerSourceFifo) {
  // Tiny flush thresholds force many small transport buffers; interleaving
  // across sources is fine, reordering within one source is not.
  tc::config cfg;
  cfg.buffer_capacity = 64;
  const int n = 4;
  const std::uint64_t per_rank = 400;
  run_ranks(
      n,
      [per_rank](tc::communicator& c) {
        seq_state state;
        state.by_source.resize(static_cast<std::size_t>(c.size()));
        auto h = c.register_object(state);
        c.barrier();
        for (std::uint64_t s = 0; s < per_rank; ++s) {
          c.async(0, seq_handler{}, h, c.rank(), s);
        }
        c.barrier();
        if (c.rank0()) {
          for (int from = 0; from < c.size(); ++from) {
            const auto& seqs = state.by_source[static_cast<std::size_t>(from)];
            require(seqs.size() == per_rank,
                    "source " + std::to_string(from) + " message count");
            for (std::uint64_t s = 0; s < per_rank; ++s) {
              require(seqs[s] == s, "source " + std::to_string(from) +
                                        " reordered at " + std::to_string(s));
            }
          }
        }
      },
      cfg);
}

TEST_P(BackendConformance, HandlerGeneratedChainsDrainBeforeBarrier) {
  run_ranks(5, [](tc::communicator& c) {
    std::uint64_t sum = 0;
    auto h = c.register_object(sum);
    c.barrier();
    if (c.rank0()) {
      for (std::uint64_t chain = 0; chain < 16; ++chain) {
        c.async(static_cast<int>(chain % c.size()), relay_handler{}, h,
                std::uint32_t{199}, chain * 1000);
      }
    }
    c.barrier();
    std::uint64_t expected = 0;
    for (std::uint64_t chain = 0; chain < 16; ++chain) {
      for (std::uint64_t hop = 0; hop < 200; ++hop) expected += chain * 1000 + hop;
    }
    const auto total = c.all_reduce_sum(sum);
    require(total == expected, "relay sum " + std::to_string(total));
  });
}

TEST_P(BackendConformance, SingleRankHandlerChains) {
  // Regression: a 1-rank job whose handlers generate self-sends announces
  // idle with messages still in its own inbox; the termination detector
  // must defer (not busy-retry) until the rank drains and re-announces.
  run_ranks(1, [](tc::communicator& c) {
    std::uint64_t sum = 0;
    auto h = c.register_object(sum);
    c.barrier();
    c.async(0, relay_handler{}, h, std::uint32_t{99}, std::uint64_t{5});
    c.barrier();
    std::uint64_t expected = 0;
    for (std::uint64_t hop = 0; hop < 100; ++hop) expected += 5 + hop;
    require(sum == expected, "single-rank relay sum " + std::to_string(sum));
    for (int i = 0; i < 20; ++i) c.barrier();
  });
}

TEST_P(BackendConformance, Collectives) {
  run_ranks(4, [](tc::communicator& c) {
    const auto sum = c.all_reduce_sum<std::uint64_t>(static_cast<std::uint64_t>(c.rank() + 1));
    require(sum == 10, "all_reduce_sum");
    require(c.all_reduce_min(10 + c.rank()) == 10, "all_reduce_min");
    require(c.all_reduce_max(10 + c.rank()) == 13, "all_reduce_max");
    const auto names = c.all_gather(std::string(1, static_cast<char>('a' + c.rank())));
    require(names.size() == 4 && names[0] == "a" && names[3] == "d", "all_gather");
    const std::string v = c.rank() == 2 ? "from-two" : "";
    require(c.broadcast(v, 2) == "from-two", "broadcast");
    for (int i = 0; i < 10; ++i) {
      require(c.all_reduce_sum<std::uint64_t>(1) == 4, "repeated reduce leaks state");
    }
  });
}

TEST_P(BackendConformance, BarrierGenerationsWithAlternatingTraffic) {
  run_ranks(3, [](tc::communicator& c) {
    std::uint64_t tally = 0;
    auto h = c.register_object(tally);
    c.barrier();
    std::uint64_t expected = 0;
    for (int round = 0; round < 25; ++round) {
      if (round % 2 == c.rank() % 2) {
        c.async((c.rank() + 1) % c.size(), tally_handler{}, h, std::uint64_t{1});
      }
      c.barrier();
      if (round % 2 == ((c.size() + c.rank() - 1) % c.size()) % 2) ++expected;
      require(tally == expected, "round " + std::to_string(round) + " tally " +
                                     std::to_string(tally) + " != " +
                                     std::to_string(expected));
    }
  });
}

TEST_P(BackendConformance, PayloadLargerThanBufferCapacity) {
  tc::config cfg;
  cfg.buffer_capacity = 1024;
  run_ranks(
      2,
      [](tc::communicator& c) {
        std::uint64_t sum = 0;
        auto h = c.register_object(sum);
        c.barrier();
        if (c.rank0()) {
          std::vector<std::uint64_t> big(100 * 1024 / 8, 1);
          c.async(1, sum_vector_handler{}, h, big);
        }
        c.barrier();
        const auto total = c.all_reduce_sum(sum);
        require(total == 100 * 1024 / 8, "large payload sum");
      },
      cfg);
}

TEST_P(BackendConformance, DistributedContainersInterleaved) {
  run_ranks(4, [](tc::communicator& c) {
    tc::counting_set<std::string> counts(c, 16);
    tc::column_exchange<std::uint64_t, std::string> ex(c);
    c.barrier();
    for (int i = 0; i < 300; ++i) {
      counts.async_increment("key" + std::to_string(i % 37));
      ex.push(i % c.size(), static_cast<std::uint64_t>(i), "item" + std::to_string(i));
    }
    ex.flush();
    counts.finalize();
    require(counts.global_total() == 4 * 300, "counting_set total");
    require(counts.global_size() == 37, "counting_set distinct keys");
    auto& [ids, items] = ex.inbox();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      require(items[i] == "item" + std::to_string(ids[i]), "column_exchange string column");
    }
    require(c.all_reduce_sum(static_cast<std::uint64_t>(ids.size())) == 4 * 300,
            "column_exchange total");
  });
}

TEST_P(BackendConformance, ZeroCopyViewArguments) {
  run_ranks(3, [](tc::communicator& c) {
    view_tally tally;
    auto h = c.register_object(tally);
    c.barrier();
    std::vector<std::uint64_t> payload(257);
    std::iota(payload.begin(), payload.end(), 1);  // sum = 257*258/2
    const std::string text = "zero-copy-" + std::to_string(c.rank());
    for (int i = 0; i < 50; ++i) {
      c.async((c.rank() + 1) % c.size(), view_handler{}, h, ts::as_wire_span(payload),
              std::string_view(text));
    }
    c.barrier();
    require(tally.span_elems == 50 * 257, "span element count");
    require(tally.span_sum == 50ull * (257 * 258 / 2), "span sum");
    require(tally.text.size() == 50 * text.size(), "string_view length");
    const auto total = c.all_reduce_sum(tally.span_sum);
    require(total == 3 * 50ull * (257 * 258 / 2), "global span sum");
  });
}

TEST_P(BackendConformance, GlobalStatsAgreeOnEveryRank) {
  run_ranks(4, [](tc::communicator& c) {
    std::uint64_t tally = 0;
    auto h = c.register_object(tally);
    c.barrier();
    const auto before = c.local_stats();
    for (int i = 0; i < 100; ++i) {
      c.async((c.rank() + 1) % c.size(), tally_handler{}, h, std::uint64_t{1});
    }
    c.barrier();
    const auto delta = c.local_stats() - before;
    // Every rank sent exactly 100 logical messages this phase; the
    // all-reduced global deltas must agree bit-for-bit everywhere.
    const auto global_messages = c.all_reduce_sum(delta.messages_sent);
    require(global_messages == 400, "global message delta " +
                                        std::to_string(global_messages));
    const auto g = c.global_stats();
    const auto g2 = c.broadcast(g, 0);
    require(g.messages_sent == g2.messages_sent && g.remote_bytes == g2.remote_bytes &&
                g.handlers_run == g2.handlers_run,
            "global_stats differs across ranks");
  });
}

TEST_P(BackendConformance, AbortPropagatesToEveryRank) {
  EXPECT_THROW(run_ranks(4,
                         [](tc::communicator& c) {
                           if (c.rank() == 2) {
                             throw std::runtime_error("rank 2 failed deliberately");
                           }
                           // Other ranks park in a barrier; they must unwind
                           // rather than deadlock.
                           c.barrier();
                         }),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendConformance,
                         ::testing::Values(tc::backend_kind::inproc,
                                           tc::backend_kind::socket),
                         [](const ::testing::TestParamInfo<tc::backend_kind>& info) {
                           return std::string(tc::backend_name(info.param));
                         });

// --- socket-specific behavior ------------------------------------------------

TEST(SocketBackend, EnvDiscoverySingleRank) {
  // A 1-rank socket job exercises env-based bootstrap without fork.
  ::setenv("TRIPOLL_RANK", "0", 1);
  ::setenv("TRIPOLL_NRANKS", "1", 1);
  ::setenv("TRIPOLL_SOCKET_DIR", "/tmp/tripoll-envtest", 1);
  auto opts = tc::socket_options::from_env();
  EXPECT_EQ(opts.rank, 0);
  EXPECT_EQ(opts.nranks, 1);
  std::uint64_t seen = 0;
  const auto stats = tc::runtime::run_socket_rank(
      [&seen](tc::communicator& c) {
        std::uint64_t tally = 0;
        auto h = c.register_object(tally);
        c.barrier();
        for (int i = 0; i < 10; ++i) c.async(0, tally_handler{}, h, std::uint64_t{1});
        c.barrier();
        seen = tally;
      },
      opts);
  EXPECT_EQ(seen, 10u);
  EXPECT_GE(stats.messages_sent, 10u);
  ::unsetenv("TRIPOLL_RANK");
  ::unsetenv("TRIPOLL_NRANKS");
  ::unsetenv("TRIPOLL_SOCKET_DIR");
}

TEST(SocketBackend, HostsParsing) {
  ::setenv("TRIPOLL_HOSTS", "127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003", 1);
  const auto opts = tc::socket_options::from_env();
  ASSERT_EQ(opts.hosts.size(), 3u);
  EXPECT_EQ(opts.hosts[0], "127.0.0.1:9001");
  EXPECT_EQ(opts.hosts[2], "127.0.0.1:9003");
  ::unsetenv("TRIPOLL_HOSTS");
}

TEST(SocketBackend, RejectsInvalidBootstrap) {
  tc::socket_options opts;  // rank/nranks unset
  EXPECT_THROW(tc::socket_transport t(opts), std::invalid_argument);
  opts.rank = 0;
  opts.nranks = 2;
  EXPECT_THROW(tc::socket_transport t2(opts), std::invalid_argument);  // no rendezvous
  opts.hosts = {"127.0.0.1:9001"};  // wrong length
  EXPECT_THROW(tc::socket_transport t3(opts), std::invalid_argument);
}
