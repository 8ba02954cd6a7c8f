// Tests for the simulated distributed runtime: RPC delivery, barriers with
// termination detection, collectives, stats accounting, failure propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/runtime.hpp"

namespace tc = tripoll::comm;

namespace {

// Handlers mutate rank-local state addressed through dist_handle, or global
// atomics when cross-rank totals are what the test asserts.
std::atomic<std::uint64_t> g_counter{0};

struct bump_counter {
  void operator()(std::uint64_t by) { g_counter.fetch_add(by); }
};

struct local_tally {
  std::uint64_t received = 0;
  std::vector<std::string> strings;
};

struct tally_handler {
  void operator()(tc::communicator& c, tc::dist_handle<local_tally> h, std::uint64_t v) {
    c.resolve(h).received += v;
  }
};

struct tally_string_handler {
  void operator()(tc::communicator& c, tc::dist_handle<local_tally> h,
                  const std::string& s) {
    c.resolve(h).strings.push_back(s);
  }
};

}  // namespace

TEST(Runtime, RunsAllRanks) {
  for (int n : {1, 2, 3, 8}) {
    std::atomic<int> ran{0};
    tc::runtime::run(n, [&](tc::communicator& c) {
      EXPECT_GE(c.rank(), 0);
      EXPECT_LT(c.rank(), c.size());
      EXPECT_EQ(c.size(), n);
      ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), n);
  }
}

TEST(Runtime, RejectsZeroRanks) {
  EXPECT_THROW(tc::runtime::run(0, [](tc::communicator&) {}), std::invalid_argument);
}

TEST(Async, DeliversToEveryRank) {
  g_counter = 0;
  tc::runtime::run(4, [](tc::communicator& c) {
    for (int dest = 0; dest < c.size(); ++dest) {
      c.async(dest, bump_counter{}, std::uint64_t{1});
    }
    c.barrier();
  });
  EXPECT_EQ(g_counter.load(), 16u);
}

TEST(Async, HandlerRunsOnDestinationRank) {
  tc::runtime::run(4, [](tc::communicator& c) {
    local_tally tally;
    auto handle = c.register_object(tally);
    c.barrier();  // all ranks registered before messages fly
    // Everyone sends rank r the value r+1.
    for (int dest = 0; dest < c.size(); ++dest) {
      c.async(dest, tally_handler{}, handle, static_cast<std::uint64_t>(dest + 1));
    }
    c.barrier();
    EXPECT_EQ(tally.received,
              static_cast<std::uint64_t>(c.rank() + 1) * static_cast<std::uint64_t>(c.size()));
  });
}

TEST(Async, SelfSendWorks) {
  tc::runtime::run(3, [](tc::communicator& c) {
    local_tally tally;
    auto handle = c.register_object(tally);
    c.barrier();
    c.async(c.rank(), tally_handler{}, handle, std::uint64_t{7});
    c.barrier();
    EXPECT_EQ(tally.received, 7u);
  });
}

TEST(Async, StringPayloadsSurviveBuffering) {
  tc::runtime::run(3, [](tc::communicator& c) {
    local_tally tally;
    auto handle = c.register_object(tally);
    c.barrier();
    if (c.rank0()) {
      for (int i = 0; i < 100; ++i) {
        c.async(1, tally_string_handler{}, handle,
                std::string(static_cast<std::size_t>(i), 'x'));
      }
    }
    c.barrier();
    if (c.rank() == 1) {
      ASSERT_EQ(tally.strings.size(), 100u);
      for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(tally.strings[static_cast<std::size_t>(i)].size(),
                  static_cast<std::size_t>(i));
      }
    } else {
      EXPECT_TRUE(tally.strings.empty());
    }
  });
}

namespace {

// Message chains: handler that forwards to the next rank until hops exhaust.
struct chain_handler {
  void operator()(tc::communicator& c, std::uint32_t hops_left) {
    g_counter.fetch_add(1);
    if (hops_left > 0) {
      c.async((c.rank() + 1) % c.size(), chain_handler{}, hops_left - 1);
    }
  }
};

}  // namespace

TEST(Barrier, DrainsHandlerGeneratedMessages) {
  // A barrier must not complete while handler-spawned messages are pending,
  // even across multiple generations of re-sends.
  g_counter = 0;
  tc::runtime::run(4, [](tc::communicator& c) {
    if (c.rank0()) {
      c.async(1, chain_handler{}, std::uint32_t{63});
    }
    c.barrier();
    EXPECT_EQ(g_counter.load(), 64u);
  });
}

TEST(Barrier, ManyConsecutiveBarriers) {
  tc::runtime::run(8, [](tc::communicator& c) {
    for (int i = 0; i < 50; ++i) c.barrier();
  });
}

TEST(Barrier, HeavyAllToAllTraffic) {
  g_counter = 0;
  const int n = 6;
  const int per_pair = 500;
  tc::runtime::run(n, [&](tc::communicator& c) {
    for (int round = 0; round < per_pair; ++round) {
      for (int dest = 0; dest < c.size(); ++dest) {
        c.async(dest, bump_counter{}, std::uint64_t{1});
      }
    }
    c.barrier();
  });
  EXPECT_EQ(g_counter.load(), static_cast<std::uint64_t>(n) * n * per_pair);
}

TEST(Collectives, AllReduceSum) {
  tc::runtime::run(5, [](tc::communicator& c) {
    const auto total = c.all_reduce_sum<std::uint64_t>(static_cast<std::uint64_t>(c.rank() + 1));
    EXPECT_EQ(total, 15u);  // 1+2+3+4+5
  });
}

TEST(Collectives, AllReduceMinMax) {
  tc::runtime::run(4, [](tc::communicator& c) {
    EXPECT_EQ(c.all_reduce_min(10 + c.rank()), 10);
    EXPECT_EQ(c.all_reduce_max(10 + c.rank()), 13);
  });
}

TEST(Collectives, AllReduceDouble) {
  tc::runtime::run(3, [](tc::communicator& c) {
    const double total = c.all_reduce_sum(0.5 * (c.rank() + 1));
    EXPECT_DOUBLE_EQ(total, 3.0);
  });
}

TEST(Collectives, RepeatedReductionsDoNotLeakState) {
  tc::runtime::run(3, [](tc::communicator& c) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(c.all_reduce_sum<std::uint64_t>(1), 3u);
    }
  });
}

TEST(Collectives, AllGatherOrdersByRank) {
  tc::runtime::run(4, [](tc::communicator& c) {
    auto values = c.all_gather(std::string(1, static_cast<char>('a' + c.rank())));
    ASSERT_EQ(values.size(), 4u);
    EXPECT_EQ(values[0], "a");
    EXPECT_EQ(values[3], "d");
  });
}

TEST(Collectives, Broadcast) {
  tc::runtime::run(4, [](tc::communicator& c) {
    const std::string v = c.rank() == 2 ? "from-two" : "";
    EXPECT_EQ(c.broadcast(v, 2), "from-two");
  });
}

TEST(Stats, CountsRemoteAndLocalBytes) {
  auto stats = tc::runtime::run(2, [](tc::communicator& c) {
    if (c.rank0()) {
      c.async(1, bump_counter{}, std::uint64_t{1});  // remote
      c.async(0, bump_counter{}, std::uint64_t{1});  // local
    }
    c.barrier();
  });
  EXPECT_GT(stats.remote_bytes, 0u);
  EXPECT_GT(stats.local_bytes, 0u);
  EXPECT_GE(stats.messages_sent, 2u);
  EXPECT_GE(stats.handlers_run, 2u);
}

TEST(Stats, PhaseDeltasViaSnapshots) {
  tc::runtime::run(2, [](tc::communicator& c) {
    c.barrier();
    const auto before = c.stats();
    if (c.rank0()) c.async(1, bump_counter{}, std::uint64_t{1});
    c.barrier();
    const auto after = c.stats();
    const auto delta = after - before;
    if (c.rank0()) {
      EXPECT_GT(delta.remote_bytes, 0u);
    }
  });
}

TEST(Stats, BufferingAggregatesMessages) {
  // With a large buffer, many small RPCs coalesce into few transport buffers.
  tc::config cfg;
  cfg.buffer_capacity = 64 * 1024;
  auto stats = tc::runtime::run(
      2,
      [](tc::communicator& c) {
        if (c.rank0()) {
          for (int i = 0; i < 1000; ++i) c.async(1, bump_counter{}, std::uint64_t{0});
        }
        c.barrier();
      },
      cfg);
  EXPECT_GE(stats.messages_sent, 1000u);
  EXPECT_LE(stats.buffers_sent, 20u);  // ~1000 tiny messages in a handful of flushes
}

// --- coalescing: watermarks, adaptivity, pooling, drain order ---------------

namespace {

struct seq_tally {
  std::map<int, std::vector<std::uint64_t>> by_source;
};

struct seq_handler {
  void operator()(tc::communicator& c, tc::dist_handle<seq_tally> h, int from,
                  std::uint64_t seq) {
    c.resolve(h).by_source[from].push_back(seq);
  }
};

}  // namespace

TEST(Flush, DestinationFlushesAtBufferCapacity) {
  // The one send-buffer rule: a destination's buffer goes to the transport
  // once it holds buffer_capacity bytes, and at the barrier.  Every RPC here
  // has the same size, so the flush count follows from the capacity alone.
  tc::config cfg;
  cfg.buffer_capacity = 4096;
  constexpr std::uint64_t kSends = 5000;
  auto stats = tc::runtime::run(
      2,
      [](tc::communicator& c) {
        if (c.rank0()) {
          for (std::uint64_t i = 0; i < kSends; ++i) {
            c.async(1, bump_counter{}, std::uint64_t{1});
          }
        }
        c.barrier();
      },
      cfg);
  ASSERT_EQ(stats.messages_sent, kSends);
  ASSERT_EQ(stats.remote_bytes % kSends, 0u);
  const std::uint64_t rpc_bytes = stats.remote_bytes / kSends;
  const std::uint64_t rpcs_per_buffer = (cfg.buffer_capacity + rpc_bytes - 1) / rpc_bytes;
  EXPECT_EQ(stats.buffers_sent, (kSends + rpcs_per_buffer - 1) / rpcs_per_buffer);
}

TEST(Drain, PerSourceOrderSurvivesInterleavedDelivery) {
  // Buffers from many sources drain in arbitrary interleaving (tiny flush
  // thresholds force many small buffers), but messages from any one source
  // must be processed in send order.
  tc::config cfg;
  cfg.buffer_capacity = 64;
  const int n = 4;
  const std::uint64_t per_rank = 500;
  tc::runtime::run(
      n,
      [&](tc::communicator& c) {
        seq_tally tally;
        auto handle = c.register_object(tally);
        c.barrier();
        for (std::uint64_t s = 0; s < per_rank; ++s) {
          c.async(0, seq_handler{}, handle, c.rank(), s);
        }
        c.barrier();
        if (c.rank0()) {
          ASSERT_EQ(tally.by_source.size(), static_cast<std::size_t>(n));
          for (const auto& [from, seqs] : tally.by_source) {
            ASSERT_EQ(seqs.size(), per_rank) << "source " << from;
            for (std::uint64_t s = 0; s < per_rank; ++s) {
              ASSERT_EQ(seqs[s], s) << "source " << from << " reordered at " << s;
            }
          }
        }
      },
      cfg);
}

TEST(Abort, ExceptionPropagatesToCaller) {
  EXPECT_THROW(tc::runtime::run(4,
                                [](tc::communicator& c) {
                                  if (c.rank() == 2) {
                                    throw std::runtime_error("rank 2 failed");
                                  }
                                  // Other ranks park in a barrier; they must
                                  // unwind rather than deadlock.
                                  c.barrier();
                                }),
               std::runtime_error);
}

TEST(Abort, FirstErrorWins) {
  try {
    tc::runtime::run(2, [](tc::communicator& c) {
      if (c.rank() == 1) throw std::runtime_error("boom");
      c.barrier();
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    // Either the original error or (rarely) the abort notification reaches
    // the caller first; the original must be preferred when present.
    EXPECT_TRUE(std::string(e.what()) == "boom" ||
                std::string(e.what()).find("aborted") != std::string::npos);
  }
}

// --- parameterized sweep: rank counts x buffer sizes --------------------------------

class CommSweep : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(CommSweep, AllToAllCountsExact) {
  const auto [nranks, buffer_capacity] = GetParam();
  g_counter = 0;
  tc::config cfg;
  cfg.buffer_capacity = buffer_capacity;
  tc::runtime::run(
      nranks,
      [&](tc::communicator& c) {
        for (int dest = 0; dest < c.size(); ++dest) {
          for (int i = 0; i < 50; ++i) c.async(dest, bump_counter{}, std::uint64_t{1});
        }
        c.barrier();
      },
      cfg);
  EXPECT_EQ(g_counter.load(), static_cast<std::uint64_t>(nranks) * nranks * 50);
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndBuffers, CommSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values(std::size_t{64}, std::size_t{1024},
                                         std::size_t{65536})));
