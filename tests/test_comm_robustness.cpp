// Robustness tests for the comm runtime: oversized payloads, aggressive
// polling, deep RPC relays, large collectives, and watchdog configuration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "comm/counting_set.hpp"
#include "comm/column_exchange.hpp"
#include "comm/runtime.hpp"

namespace tc = tripoll::comm;

namespace {

std::atomic<std::uint64_t> g_total{0};

struct sum_vector_handler {
  void operator()(const std::vector<std::uint64_t>& v) {
    g_total.fetch_add(std::accumulate(v.begin(), v.end(), std::uint64_t{0}));
  }
};

struct relay_handler {
  void operator()(tc::communicator& c, std::uint32_t hops, std::uint64_t token) {
    g_total.fetch_add(token);
    if (hops > 0) {
      c.async((c.rank() + static_cast<int>(token % 3) + 1) % c.size(), relay_handler{},
              hops - 1, token + 1);
    }
  }
};

}  // namespace

TEST(Robustness, PayloadLargerThanBufferCapacity) {
  // One message 100x the flush threshold must still arrive intact.
  tc::config cfg;
  cfg.buffer_capacity = 1024;
  g_total = 0;
  tc::runtime::run(
      2,
      [](tc::communicator& c) {
        if (c.rank0()) {
          std::vector<std::uint64_t> big(100 * 1024 / 8, 1);
          c.async(1, sum_vector_handler{}, big);
        }
        c.barrier();
      },
      cfg);
  EXPECT_EQ(g_total.load(), 100u * 1024 / 8);
}

TEST(Robustness, AggressivePollingEveryOp) {
  // 2,000 sends per rank cross the communicator's 64-op inbox poll about
  // 31 times each, mid-send.
  g_total = 0;
  tc::runtime::run(
      4,
      [](tc::communicator& c) {
        for (int i = 0; i < 2000; ++i) {
          c.async((c.rank() + 1) % c.size(), sum_vector_handler{},
                  std::vector<std::uint64_t>{1});
        }
        c.barrier();
      });
  EXPECT_EQ(g_total.load(), 8000u);
}

TEST(Robustness, DeepRelayChains) {
  // 64 chains of 200 hops each, hopping pseudo-randomly between ranks; the
  // barrier must not complete until every hop has executed.
  g_total = 0;
  tc::runtime::run(5, [](tc::communicator& c) {
    if (c.rank0()) {
      for (std::uint64_t chain = 0; chain < 64; ++chain) {
        c.async(static_cast<int>(chain % c.size()), relay_handler{}, std::uint32_t{199},
                chain * 1000);
      }
    }
    c.barrier();
  });
  // Each chain of 200 executions adds token, token+1, ..., token+199.
  std::uint64_t expected = 0;
  for (std::uint64_t chain = 0; chain < 64; ++chain) {
    for (std::uint64_t h = 0; h < 200; ++h) expected += chain * 1000 + h;
  }
  EXPECT_EQ(g_total.load(), expected);
}

TEST(Robustness, LargeAllGather) {
  tc::runtime::run(6, [](tc::communicator& c) {
    std::vector<std::uint64_t> mine(20000, static_cast<std::uint64_t>(c.rank()));
    const auto all = c.all_gather(mine);
    ASSERT_EQ(all.size(), 6u);
    for (int r = 0; r < 6; ++r) {
      ASSERT_EQ(all[static_cast<std::size_t>(r)].size(), 20000u);
      EXPECT_EQ(all[static_cast<std::size_t>(r)].front(), static_cast<std::uint64_t>(r));
      EXPECT_EQ(all[static_cast<std::size_t>(r)].back(), static_cast<std::uint64_t>(r));
    }
  });
}

TEST(Robustness, CountingSetManyDistinctKeys) {
  tc::runtime::run(4, [](tc::communicator& c) {
    tc::counting_set<std::uint64_t> counts(c, /*cache_capacity=*/128);
    c.barrier();
    // 4 ranks x 25k distinct keys with overlap across ranks.
    for (std::uint64_t k = 0; k < 25000; ++k) {
      counts.async_increment(k % 10007);
      counts.async_increment(k);
    }
    counts.finalize();
    EXPECT_EQ(counts.global_total(), 4u * 2u * 25000u);
    EXPECT_EQ(counts.global_size(), 25000u);  // keys 0..24999
  });
}

TEST(Robustness, ExchangeOfStringColumnsToOneRank) {
  tc::runtime::run(3, [](tc::communicator& c) {
    tc::column_exchange<std::uint32_t, std::string> ex(c);
    c.barrier();
    for (int i = 0; i < 50; ++i) {
      ex.push(0, static_cast<std::uint32_t>(c.rank()),
              "rank" + std::to_string(c.rank()) + "-" + std::to_string(i));
    }
    ex.flush();
    c.barrier();
    auto& [from, items] = ex.inbox();
    std::vector<int> next(3, 0);  // one sender's items arrive in send order
    for (std::size_t i = 0; i < items.size(); ++i) {
      EXPECT_EQ(items[i], "rank" + std::to_string(from[i]) + "-" +
                              std::to_string(next[from[i]]++));
    }
    EXPECT_EQ(c.all_reduce_sum(static_cast<std::uint64_t>(items.size())), 150u);
    EXPECT_EQ(items.size(), c.rank0() ? 150u : 0u);
  });
}

TEST(Robustness, WatchdogDisabledDoesNotFire) {
  tc::config cfg;
  cfg.barrier_timeout_seconds = 0.0;  // disabled
  tc::runtime::run(
      3,
      [](tc::communicator& c) {
        for (int i = 0; i < 10; ++i) c.barrier();
      },
      cfg);
}

TEST(Robustness, ManySequentialRuntimes) {
  // Runtimes must be independently constructible/destructible in one
  // process (benches do this dozens of times).
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ran{0};
    tc::runtime::run(3, [&](tc::communicator& c) {
      (void)c.all_reduce_sum(1);
      ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), 3);
  }
}

TEST(Robustness, InterleavedHeterogeneousTraffic) {
  // Counting-set flushes, column batches and plain RPCs interleave in the
  // same buffers -- the serialization heterogeneity the paper highlights.
  g_total = 0;
  tc::runtime::run(4, [](tc::communicator& c) {
    tc::counting_set<std::string> counts(c, 16);
    tc::column_exchange<std::uint64_t> ex(c);
    c.barrier();
    for (int i = 0; i < 500; ++i) {
      counts.async_increment("key" + std::to_string(i % 37));
      ex.push(i % c.size(), static_cast<std::uint64_t>(i % 53));
      c.async((c.rank() + 1) % c.size(), sum_vector_handler{},
              std::vector<std::uint64_t>{2});
    }
    ex.flush();
    counts.finalize();
    EXPECT_EQ(counts.global_total(), 4u * 500u);
    EXPECT_EQ(c.all_reduce_sum(static_cast<std::uint64_t>(ex.inbox_size())), 4u * 500u);
  });
  EXPECT_EQ(g_total.load(), 4u * 500u * 2u);
}
