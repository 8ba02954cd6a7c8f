// Tests for the distributed containers: the batched column exchange and
// the YGM-style counting set.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "comm/column_exchange.hpp"
#include "comm/counting_set.hpp"
#include "comm/runtime.hpp"

namespace tc = tripoll::comm;

TEST(ColumnExchange, EntriesLandOnTheirDestinationInSendOrder) {
  tc::runtime::run(4, [](tc::communicator& c) {
    tc::column_exchange<std::uint64_t, std::uint32_t> ex(c);
    const auto n = static_cast<std::uint64_t>(c.size());
    for (std::uint64_t k = 0; k < 10000; ++k) {
      ex.push(static_cast<int>(k % n), k, static_cast<std::uint32_t>(c.rank()));
    }
    ex.flush();
    c.barrier();
    auto& [keys, senders] = ex.inbox();
    ASSERT_EQ(keys.size(), 10000u);  // 2500 from each of 4 ranks
    std::vector<std::uint64_t> last(n, 0);
    std::vector<bool> seen(n, false);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(keys[i] % n, static_cast<std::uint64_t>(c.rank()));
      const std::uint32_t from = senders[i];
      ASSERT_LT(from, n);
      if (seen[from]) {
        EXPECT_GT(keys[i], last[from]);  // one sender's entries keep their order
      }
      seen[from] = true;
      last[from] = keys[i];
    }
  });
}

TEST(ColumnExchange, ShipsBatchesNotEntries) {
  tc::runtime::run(2, [](tc::communicator& c) {
    tc::column_exchange<std::uint64_t, std::uint64_t> ex(c);
    c.barrier();
    const auto before = c.local_stats();
    for (std::uint64_t k = 0; k < 20000; ++k) ex.push(1 - c.rank(), k, k * k);
    for (std::uint64_t k = 0; k < 5000; ++k) ex.push(c.rank(), k, k * k);  // no transport
    ex.flush();
    c.barrier();
    const auto sent = (c.local_stats() - before).messages_sent;
    // 16-byte entries, ~buffer_capacity bytes per RPC.
    const std::uint64_t per_batch = c.cfg().buffer_capacity / 16;
    EXPECT_EQ(sent, (20000 + per_batch - 1) / per_batch);
    auto& [keys, squares] = ex.inbox();
    ASSERT_EQ(keys.size(), 25000u);
    for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(squares[i], keys[i] * keys[i]);
    ex.release_inbox();
    EXPECT_EQ(ex.inbox_size(), 0u);
  });
}

namespace {

struct no_payload {};

}  // namespace

TEST(ColumnExchange, StringAndEmptyColumns) {
  tc::runtime::run(3, [](tc::communicator& c) {
    tc::column_exchange<std::uint64_t, std::string, no_payload> ex(c);
    for (std::uint64_t k = 0; k < 600; ++k) {
      ex.push(static_cast<int>(k % 3), k, "v" + std::to_string(k), no_payload{});
    }
    ex.flush();
    c.barrier();
    auto& [keys, names, empties] = ex.inbox();
    ASSERT_EQ(keys.size(), 3u * 200u);
    EXPECT_EQ(names.size(), keys.size());
    EXPECT_EQ(empties.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(names[i], "v" + std::to_string(keys[i]));
    }
  });
}

TEST(CountingSet, CountsAcrossRanks) {
  tc::runtime::run(4, [](tc::communicator& c) {
    tc::counting_set<std::string> counts(c);
    c.barrier();
    counts.async_increment("a");
    counts.async_increment("b", 2);
    counts.finalize();
    auto all = counts.gather_all();
    EXPECT_EQ(all.at("a"), 4u);
    EXPECT_EQ(all.at("b"), 8u);
    EXPECT_EQ(counts.global_size(), 2u);
    EXPECT_EQ(counts.global_total(), 12u);
  });
}

TEST(CountingSet, CacheFlushPreservesTotals) {
  // Tiny cache forces many mid-stream flushes; totals must be exact.
  tc::runtime::run(3, [](tc::communicator& c) {
    tc::counting_set<std::uint64_t> counts(c, /*cache_capacity=*/4);
    c.barrier();
    for (std::uint64_t i = 0; i < 1000; ++i) counts.async_increment(i % 13);
    counts.finalize();
    auto all = counts.gather_all();
    std::uint64_t total = 0;
    for (auto& [k, n] : all) {
      EXPECT_LT(k, 13u);
      total += n;
    }
    EXPECT_EQ(total, 3000u);
  });
}

TEST(CountingSet, PairKeysForJointDistributions) {
  // Alg. 4 counts pairs (open_time, close_time).
  tc::runtime::run(4, [](tc::communicator& c) {
    tc::counting_set<std::pair<std::uint32_t, std::uint32_t>> counts(c);
    c.barrier();
    counts.async_increment({static_cast<std::uint32_t>(c.rank() % 2), 7u});
    counts.finalize();
    auto all = counts.gather_all();
    EXPECT_EQ(all.size(), 2u);
    EXPECT_EQ(all.at({0u, 7u}), 2u);
    EXPECT_EQ(all.at({1u, 7u}), 2u);
  });
}

TEST(CountingSet, GatherAllIdenticalOnEveryRank) {
  tc::runtime::run(3, [](tc::communicator& c) {
    tc::counting_set<std::uint64_t> counts(c);
    c.barrier();
    counts.async_increment(static_cast<std::uint64_t>(c.rank()));
    counts.finalize();
    auto all = counts.gather_all();
    EXPECT_EQ(all.size(), 3u);
    for (auto& [k, n] : all) EXPECT_EQ(n, 1u);
  });
}
