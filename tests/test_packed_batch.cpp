// Tests for the packed survey batch codec (core/packed_batch.hpp), in both
// its forms -- ranked wedge candidates and id-set pulled lists: exact round
// trips over the entry shapes the engine ships, the documented byte
// layouts, and seeded mutation sweeps -- over the socket backend these
// bytes come off the network, so every corrupted input must either decode
// within bounds or throw serial::deserialize_error.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/packed_batch.hpp"
#include "graph/types.hpp"
#include "serial/buffer.hpp"
#include "serial/serialize.hpp"
#include "serial/wire_guard.hpp"

namespace tc = tripoll::core;
namespace ts = tripoll::serial;
namespace tg = tripoll::graph;

namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// A 64-byte bitwise metadata struct (the rich-metadata bench shape).
struct meta64 {
  std::array<std::uint64_t, 8> w{};
  [[nodiscard]] bool operator==(const meta64&) const = default;
};
TRIPOLL_WIRE_ASSERT(meta64, w);

template <typename M>
struct plain_entry {
  tg::vertex_id r = 0;
  std::uint64_t r_rank = 0;
  M meta{};
};

/// Serialize `(u32 tag, batch of entries, u64 trailer)` the way an RPC
/// frames it: the batch sits between other arguments.
template <typename Wire, typename M>
ts::byte_buffer encode_message(const std::vector<plain_entry<M>>& entries) {
  const auto fill = [&](typename tc::packed_batch<Wire>::encoder& enc) {
    for (const auto& e : entries) enc.push(e.r, e.r_rank, e.meta);
  };
  ts::byte_buffer buf;
  ts::pack(buf, std::uint32_t{0xA5A5A5A5}, tc::packed_batch<Wire>::encode(fill),
           std::uint64_t{0x1122334455667788});
  return buf;
}

/// Unpack the message above, checking the surrounding arguments survive.
template <typename Wire>
tc::packed_batch<Wire> decode_message(const ts::byte_buffer& buf,
                                      std::vector<tc::batch_entry<Wire>>& out) {
  ts::buffer_reader rd(buf.view());
  std::uint32_t tag = 0;
  tc::packed_batch<Wire> batch;
  std::uint64_t trailer = 0;
  ts::unpack(rd, tag, batch, trailer);
  EXPECT_EQ(tag, 0xA5A5A5A5u);
  EXPECT_EQ(trailer, 0x1122334455667788u);
  EXPECT_TRUE(rd.exhausted());
  batch.decode(out);
  return batch;
}

template <typename Wire, typename M>
void expect_roundtrip(const std::vector<plain_entry<M>>& entries) {
  const ts::byte_buffer buf = encode_message<Wire>(entries);
  std::vector<tc::batch_entry<Wire>> out;
  const auto batch = decode_message<Wire>(buf, out);
  EXPECT_EQ(batch.size(), entries.size());
  ASSERT_EQ(out.size(), entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    EXPECT_EQ(out[k].r, entries[k].r) << k;
    EXPECT_EQ(out[k].r_rank, entries[k].r_rank) << k;
    EXPECT_EQ(out[k].meta, entries[k].meta) << k;
  }
}

std::vector<plain_entry<tg::none>> sorted_entries(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<plain_entry<tg::none>> v(n);
  for (auto& e : v) {
    e.r = rng() % (1u << 20);
    e.r_rank = rng() % 512;
  }
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return tg::make_order_key(a.r, a.r_rank) < tg::make_order_key(b.r, b.r_rank);
  });
  return v;
}

}  // namespace

// --- round trips --------------------------------------------------------------

TEST(PackedBatch, EmptyBatch) {
  expect_roundtrip<tg::none>(std::vector<plain_entry<tg::none>>{});
  // Header only: n = 0, nbytes = 0.
  const auto buf = encode_message<tg::none>(std::vector<plain_entry<tg::none>>{});
  EXPECT_EQ(buf.size(), 4u + 2u + 8u);
}

TEST(PackedBatch, OneEntry) {
  expect_roundtrip<tg::none>(std::vector<plain_entry<tg::none>>{{42, 7, {}}});
}

TEST(PackedBatch, TenThousandSortedEntries) {
  const auto entries = sorted_entries(10000, 1);
  expect_roundtrip<tg::none>(entries);
  // Sorted ranks make one-byte deltas; r < 2^20 takes at most 3 bytes.
  const auto buf = encode_message<tg::none>(entries);
  EXPECT_LT(buf.size(), entries.size() * 4 + 32);
}

TEST(PackedBatch, ExtremeIdsAndRanks) {
  expect_roundtrip<tg::none>(std::vector<plain_entry<tg::none>>{
      {0, 0, {}}, {kMax, kMax, {}}, {0, kMax, {}}, {kMax, 0, {}}, {kMax, kMax, {}}, {0, 0, {}}});
}

TEST(PackedBatch, DecreasingRanks) {
  std::vector<plain_entry<std::uint64_t>> entries;
  for (std::uint64_t k = 0; k < 300; ++k) entries.push_back({k * 3, 1000 - k * 3, k});
  expect_roundtrip<std::uint64_t>(entries);
}

TEST(PackedBatch, U64TimestampMetadata) {
  std::vector<plain_entry<std::uint64_t>> entries;
  for (std::uint64_t k = 0; k < 100; ++k) entries.push_back({k + 9, k / 4, 1'700'000'000 + k});
  entries.push_back({kMax, kMax, kMax});
  expect_roundtrip<std::uint64_t>(entries);
}

TEST(PackedBatch, SixtyFourByteMetadata) {
  std::vector<plain_entry<meta64>> entries;
  for (std::uint64_t k = 0; k < 50; ++k) {
    meta64 m;
    for (std::size_t w = 0; w < m.w.size(); ++w) m.w[w] = k * 131 + w;
    entries.push_back({k, k, m});
  }
  expect_roundtrip<meta64>(entries);
}

TEST(PackedBatch, StringMetadataDecodesAsViewsIntoThePayload) {
  // The sender pushes owning strings; the receiver's wire type is a view.
  std::vector<plain_entry<std::string>> entries = {
      {1, 1, "example.com"}, {2, 1, ""}, {3, 2, std::string(300, 'x')}, {4, 9, "a.b.c"}};
  const ts::byte_buffer buf = encode_message<std::string_view>(entries);
  std::vector<tc::batch_entry<std::string_view>> out;
  decode_message<std::string_view>(buf, out);
  ASSERT_EQ(out.size(), entries.size());
  const auto* lo = reinterpret_cast<const char*>(buf.data());
  const auto* hi = lo + buf.size();
  for (std::size_t k = 0; k < entries.size(); ++k) {
    EXPECT_EQ(out[k].r, entries[k].r);
    EXPECT_EQ(out[k].r_rank, entries[k].r_rank);
    EXPECT_EQ(out[k].meta, entries[k].meta);
    if (!out[k].meta.empty()) {
      EXPECT_GE(out[k].meta.data(), lo);
      EXPECT_LE(out[k].meta.data() + out[k].meta.size(), hi);
    }
  }
}

TEST(PackedBatch, WindowedSubsetIsNonContiguous) {
  // The engine's window filter skips entries inside the list: the encoder
  // sees a non-contiguous subset, and rank deltas run across the gaps.
  std::vector<plain_entry<std::uint64_t>> all;
  for (std::uint64_t k = 0; k < 64; ++k) all.push_back({100 + k, k * 2, k * 10});
  const auto admits = [](std::uint64_t ts) { return ts % 30 < 10 || ts == 450; };
  const auto fill = [&](tc::packed_batch<std::uint64_t>::encoder& enc) {
    for (const auto& e : all) {
      if (admits(e.meta)) enc.push(e.r, e.r_rank, e.meta);
    }
  };
  ts::byte_buffer buf;
  ts::pack(buf, tc::packed_batch<std::uint64_t>::encode(fill));
  ts::buffer_reader rd(buf.view());
  tc::packed_batch<std::uint64_t> batch;
  ts::unpack(rd, batch);
  std::vector<tc::batch_entry<std::uint64_t>> out;
  batch.decode(out);
  std::vector<plain_entry<std::uint64_t>> expect;
  for (const auto& e : all) {
    if (admits(e.meta)) expect.push_back(e);
  }
  ASSERT_EQ(out.size(), expect.size());
  ASSERT_LT(expect.size(), all.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(out[k].r, expect[k].r);
    EXPECT_EQ(out[k].r_rank, expect[k].r_rank);
    EXPECT_EQ(out[k].meta, expect[k].meta);
  }
}

TEST(PackedBatch, ByteLayout) {
  // varint n | varint nbytes | (zigzag rank delta, r, meta)...
  const std::vector<plain_entry<std::uint64_t>> entries = {{5, 3, 0x01}, {7, 2, 0x02}};
  ts::byte_buffer buf;
  const auto fill = [&](tc::packed_batch<std::uint64_t>::encoder& enc) {
    for (const auto& e : entries) enc.push(e.r, e.r_rank, e.meta);
  };
  ts::pack(buf, tc::packed_batch<std::uint64_t>::encode(fill));
  const std::vector<std::uint8_t> expect = {2,    20,                         // n, nbytes
                                            6,    5, 1, 0, 0, 0, 0, 0, 0, 0,  // +3, r=5
                                            1,    7, 2, 0, 0, 0, 0, 0, 0, 0};  // -1, r=7
  ASSERT_EQ(buf.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(static_cast<std::uint8_t>(buf.data()[k]), expect[k]) << k;
  }
}

TEST(PackedBatch, ReceivedBatchResendsVerbatim) {
  const auto entries = sorted_entries(500, 2);
  ts::byte_buffer first;
  const auto fill = [&](tc::packed_batch<tg::none>::encoder& enc) {
    for (const auto& e : entries) enc.push(e.r, e.r_rank, e.meta);
  };
  ts::pack(first, tc::packed_batch<tg::none>::encode(fill));
  ts::buffer_reader rd(first.view());
  tc::packed_batch<tg::none> received;
  ts::unpack(rd, received);
  ts::byte_buffer second;
  ts::pack(second, received);
  ASSERT_EQ(second.size(), first.size());
  EXPECT_TRUE(std::equal(first.data(), first.data() + first.size(), second.data()));
}

TEST(PackedBatch, CountPrefixBeyondBytesIsRefusedBeforeDecoding) {
  // n = 2^40 entries promised in 4 bytes: read() refuses the header, so no
  // scratch is ever sized from it.
  ts::byte_buffer buf;
  ts::writer w(buf);
  w.write_varint(std::uint64_t{1} << 40);
  w.write_varint(4);
  const std::uint32_t body = 0;
  w.write_raw(&body, sizeof(body));
  ts::buffer_reader rd(buf.view());
  tc::packed_batch<tg::none> batch;
  EXPECT_THROW(ts::unpack(rd, batch), ts::deserialize_error);

  // nbytes past the end of the buffer.
  ts::byte_buffer buf2;
  ts::writer w2(buf2);
  w2.write_varint(1);
  w2.write_varint(1000);
  w2.write_raw(&body, sizeof(body));
  ts::buffer_reader rd2(buf2.view());
  EXPECT_THROW(ts::unpack(rd2, batch), ts::deserialize_error);

  // A bitwise u64 entry needs 2 + 8 bytes: 2 entries cannot fit in 12.
  ts::byte_buffer buf3;
  ts::writer w3(buf3);
  w3.write_varint(2);
  w3.write_varint(12);
  for (int k = 0; k < 3; ++k) w3.write_raw(&body, sizeof(body));
  ts::buffer_reader rd3(buf3.view());
  tc::packed_batch<std::uint64_t> batch3;
  EXPECT_THROW(ts::unpack(rd3, batch3), ts::deserialize_error);
}

TEST(PackedBatch, TrailingBytesAreRejected) {
  // One entry (2 bytes) declared in 3 bytes.
  ts::byte_buffer buf;
  ts::writer w(buf);
  w.write_varint(1);
  w.write_varint(3);
  w.write_varint(0);
  w.write_varint(5);
  w.write_varint(9);
  ts::buffer_reader rd(buf.view());
  tc::packed_batch<tg::none> batch;
  ts::unpack(rd, batch);
  std::vector<tc::batch_entry<tg::none>> out;
  EXPECT_THROW(batch.decode(out), ts::deserialize_error);
}

// --- the id-set form (pulled lists) ----------------------------------------------

namespace {

template <typename Wire>
using id_batch = tc::packed_batch<Wire, tc::batch_key::id>;

template <typename M>
struct id_plain {
  tg::vertex_id r = 0;
  M meta{};
};

template <typename Wire, typename M>
ts::byte_buffer encode_ids(const std::vector<id_plain<M>>& entries) {
  const auto fill = [&](typename id_batch<Wire>::encoder& enc) {
    for (const auto& e : entries) enc.push(e.r, e.meta);
  };
  ts::byte_buffer buf;
  ts::pack(buf, std::uint32_t{0xA5A5A5A5}, id_batch<Wire>::encode(fill),
           std::uint64_t{0x1122334455667788});
  return buf;
}

template <typename Wire, typename M>
void expect_id_roundtrip(const std::vector<id_plain<M>>& entries) {
  const ts::byte_buffer buf = encode_ids<Wire>(entries);
  ts::buffer_reader rd(buf.view());
  std::uint32_t tag = 0;
  id_batch<Wire> batch;
  std::uint64_t trailer = 0;
  ts::unpack(rd, tag, batch, trailer);
  EXPECT_EQ(tag, 0xA5A5A5A5u);
  EXPECT_EQ(trailer, 0x1122334455667788u);
  EXPECT_TRUE(rd.exhausted());
  std::vector<tc::id_entry<Wire>> out;
  batch.decode(out);
  EXPECT_EQ(batch.size(), entries.size());
  ASSERT_EQ(out.size(), entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    EXPECT_EQ(out[k].r, entries[k].r) << k;
    EXPECT_EQ(out[k].meta, entries[k].meta) << k;
  }
}

template <typename Wire, typename M>
std::vector<std::byte> id_bytes(const std::vector<id_plain<M>>& entries) {
  const auto fill = [&](typename id_batch<Wire>::encoder& enc) {
    for (const auto& e : entries) enc.push(e.r, e.meta);
  };
  ts::byte_buffer buf;
  ts::pack(buf, id_batch<Wire>::encode(fill));
  return {buf.data(), buf.data() + buf.size()};
}

}  // namespace

TEST(IdSetBatch, ByteLayout) {
  // varint n | varint nbytes | (varint id delta, meta)... -- no rank.
  const std::vector<id_plain<std::uint64_t>> entries = {{5, 0x01}, {7, 0x02}, {300, 0x03}};
  const std::vector<std::byte> got = id_bytes<std::uint64_t>(entries);
  const std::vector<std::uint8_t> expect = {3,    28,                             // n, nbytes
                                            5,    1, 0, 0, 0, 0, 0, 0, 0,         // r = 5
                                            2,    2, 0, 0, 0, 0, 0, 0, 0,         // +2
                                            0xA5, 0x02, 3, 0, 0, 0, 0, 0, 0, 0};  // +293
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(static_cast<std::uint8_t>(got[k]), expect[k]) << k;
  }
  // Without metadata a sorted list costs one byte per close id.
  const std::vector<id_plain<tg::none>> bare = {{10, {}}, {11, {}}, {13, {}}};
  const std::vector<std::byte> b = id_bytes<tg::none>(bare);
  const std::vector<std::uint8_t> bexpect = {3, 3, 10, 1, 2};
  ASSERT_EQ(b.size(), bexpect.size());
  for (std::size_t k = 0; k < bexpect.size(); ++k) {
    EXPECT_EQ(static_cast<std::uint8_t>(b[k]), bexpect[k]) << k;
  }
}

TEST(IdSetBatch, EmptyAndExtremeIds) {
  expect_id_roundtrip<tg::none>(std::vector<id_plain<tg::none>>{});
  expect_id_roundtrip<tg::none>(
      std::vector<id_plain<tg::none>>{{0, {}}, {1, {}}, {kMax - 1, {}}, {kMax, {}}});
}

TEST(IdSetBatch, UnsortedIdsRoundTripAtACostInBytes) {
  // Deltas are taken mod 2^64: a descending id costs a ten-byte varint, not
  // a wrong decode.
  std::vector<id_plain<std::uint64_t>> sorted, unsorted;
  for (std::uint64_t k = 0; k < 200; ++k) sorted.push_back({1000 + k, k});
  unsorted = sorted;
  std::mt19937_64 rng(11);
  std::shuffle(unsorted.begin(), unsorted.end(), rng);
  unsorted.push_back({kMax, 1});
  unsorted.push_back({0, 2});
  sorted.push_back({kMax, 1});
  expect_id_roundtrip<std::uint64_t>(unsorted);
  expect_id_roundtrip<std::uint64_t>(sorted);
  EXPECT_LT(id_bytes<std::uint64_t>(sorted).size(), id_bytes<std::uint64_t>(unsorted).size());
}

TEST(IdSetBatch, StringMetadataDecodesAsViewsIntoThePayload) {
  const std::vector<id_plain<std::string>> entries = {
      {1, "example.com"}, {2, ""}, {40, std::string(300, 'x')}};
  const std::vector<std::byte> bytes = id_bytes<std::string_view>(entries);
  ts::buffer_reader rd(bytes.data(), bytes.size());
  id_batch<std::string_view> batch;
  ts::unpack(rd, batch);
  std::vector<tc::id_entry<std::string_view>> out;
  batch.decode(out);
  ASSERT_EQ(out.size(), entries.size());
  const auto* lo = reinterpret_cast<const char*>(bytes.data());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    EXPECT_EQ(out[k].r, entries[k].r);
    EXPECT_EQ(out[k].meta, entries[k].meta);
    if (!out[k].meta.empty()) {
      EXPECT_GE(out[k].meta.data(), lo);
      EXPECT_LE(out[k].meta.data() + out[k].meta.size(), lo + bytes.size());
    }
  }
}

TEST(IdSetBatch, CountAndByteGuards) {
  const std::uint32_t body = 0;
  // n = 2^40 ids promised in 4 bytes.
  ts::byte_buffer buf;
  ts::writer w(buf);
  w.write_varint(std::uint64_t{1} << 40);
  w.write_varint(4);
  w.write_raw(&body, sizeof(body));
  ts::buffer_reader rd(buf.view());
  id_batch<tg::none> batch;
  EXPECT_THROW(ts::unpack(rd, batch), ts::deserialize_error);

  // nbytes past the end of the buffer.
  ts::byte_buffer buf2;
  ts::writer w2(buf2);
  w2.write_varint(1);
  w2.write_varint(1000);
  w2.write_raw(&body, sizeof(body));
  ts::buffer_reader rd2(buf2.view());
  EXPECT_THROW(ts::unpack(rd2, batch), ts::deserialize_error);

  // A bitwise u64 id-set entry needs 1 + 8 bytes: 2 cannot fit in 17, but
  // 4 bare ids fit in 4.
  ts::byte_buffer buf3;
  ts::writer w3(buf3);
  w3.write_varint(2);
  w3.write_varint(17);
  for (int k = 0; k < 5; ++k) w3.write_raw(&body, sizeof(body));
  ts::buffer_reader rd3(buf3.view());
  id_batch<std::uint64_t> batch3;
  EXPECT_THROW(ts::unpack(rd3, batch3), ts::deserialize_error);
  static_assert(id_batch<std::uint64_t>::kMinEntryBytes == 9);
  static_assert(id_batch<tg::none>::kMinEntryBytes == 1);

  // Bytes left after the last id.
  ts::byte_buffer buf4;
  ts::writer w4(buf4);
  w4.write_varint(1);
  w4.write_varint(2);
  w4.write_varint(5);
  w4.write_varint(9);
  ts::buffer_reader rd4(buf4.view());
  id_batch<tg::none> batch4;
  ts::unpack(rd4, batch4);
  std::vector<tc::id_entry<tg::none>> out;
  EXPECT_THROW(batch4.decode(out), ts::deserialize_error);
}

// --- seeded mutation sweep ------------------------------------------------------

namespace {

/// Feed one (possibly corrupt) input through the receive path.  Returns
/// true when it decoded; then every entry and view must lie within bounds.
/// Any exception other than deserialize_error fails the test.
template <typename Wire, typename Batch = tc::packed_batch<Wire>>
bool feed(const std::vector<std::byte>& bytes) {
  try {
    ts::buffer_reader rd(bytes.data(), bytes.size());
    Batch batch;
    ts::unpack(rd, batch);
    EXPECT_LE(batch.byte_size(), bytes.size());
    EXPECT_LE(batch.size() * Batch::kMinEntryBytes, batch.byte_size());
    std::vector<typename Batch::entry> out;
    batch.decode(out);
    EXPECT_EQ(out.size(), batch.size());
    if constexpr (std::is_same_v<Wire, std::string_view>) {
      const auto* lo = reinterpret_cast<const char*>(bytes.data());
      for (const auto& e : out) {
        if (e.meta.empty()) continue;
        EXPECT_GE(e.meta.data(), lo);
        EXPECT_LE(e.meta.data() + e.meta.size(), lo + bytes.size());
      }
    }
    return true;
  } catch (const ts::deserialize_error&) {
    return false;
  }
}

std::vector<std::byte> to_bytes(const ts::byte_buffer& buf) {
  return {buf.data(), buf.data() + buf.size()};
}

template <typename Wire, typename M>
std::vector<std::byte> packed_bytes(const std::vector<plain_entry<M>>& entries) {
  const auto fill = [&](typename tc::packed_batch<Wire>::encoder& enc) {
    for (const auto& e : entries) enc.push(e.r, e.r_rank, e.meta);
  };
  ts::byte_buffer buf;
  ts::pack(buf, tc::packed_batch<Wire>::encode(fill));
  return to_bytes(buf);
}

template <typename Wire, typename Batch = tc::packed_batch<Wire>>
void mutation_sweep(const std::vector<std::vector<std::byte>>& seeds, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::size_t decoded = 0, refused = 0;
  for (const auto& base : seeds) {
    ASSERT_TRUE((feed<Wire, Batch>(base)));
    // Every truncation.
    for (std::size_t len = 0; len < base.size(); ++len) {
      const std::vector<std::byte> cut(base.begin(), base.begin() + static_cast<long>(len));
      (feed<Wire, Batch>(cut) ? decoded : refused) += 1;
    }
    // Random 1-3 bit flips.
    for (int round = 0; round < 400; ++round) {
      std::vector<std::byte> m = base;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = rng() % m.size();
        m[at] ^= static_cast<std::byte>(1u << (rng() % 8));
      }
      (feed<Wire, Batch>(m) ? decoded : refused) += 1;
    }
    // Splices: a prefix of this input glued to a suffix of another.
    for (int round = 0; round < 200; ++round) {
      const auto& other = seeds[rng() % seeds.size()];
      const std::size_t a = rng() % (base.size() + 1);
      const std::size_t b = rng() % (other.size() + 1);
      std::vector<std::byte> m(base.begin(), base.begin() + static_cast<long>(a));
      m.insert(m.end(), other.begin() + static_cast<long>(b), other.end());
      (feed<Wire, Batch>(m) ? decoded : refused) += 1;
    }
  }
  // The sweep must exercise both outcomes, or it tests nothing.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace

TEST(PackedBatchMutation, MetadataFree) {
  mutation_sweep<tg::none>({packed_bytes<tg::none>(sorted_entries(1, 3)),
                            packed_bytes<tg::none>(sorted_entries(40, 4)),
                            packed_bytes<tg::none>(std::vector<plain_entry<tg::none>>{
                                {kMax, kMax, {}}, {0, 0, {}}})},
                           0x5eed0001);
}

TEST(PackedBatchMutation, TimestampMetadata) {
  std::vector<plain_entry<std::uint64_t>> a, b;
  for (std::uint64_t k = 0; k < 30; ++k) a.push_back({k * 7, k, 1'700'000'000 + k});
  for (std::uint64_t k = 0; k < 5; ++k) b.push_back({kMax - k, kMax - k, kMax});
  mutation_sweep<std::uint64_t>({packed_bytes<std::uint64_t>(a), packed_bytes<std::uint64_t>(b)},
                                0x5eed0002);
}

TEST(PackedBatchMutation, StringMetadata) {
  std::vector<plain_entry<std::string>> a = {
      {1, 1, "www.example.com"}, {2, 2, ""}, {3, 2, "x"}, {9, 5, std::string(200, 'q')}};
  std::vector<plain_entry<std::string>> b = {{77, 0, "a.b"}};
  mutation_sweep<std::string_view>(
      {packed_bytes<std::string_view>(a), packed_bytes<std::string_view>(b)}, 0x5eed0003);
}

TEST(PackedBatchMutation, SixtyFourByteMetadata) {
  std::vector<plain_entry<meta64>> a;
  for (std::uint64_t k = 0; k < 6; ++k) {
    meta64 m;
    m.w.fill(k * 0x0101010101010101ull);
    a.push_back({k, k * 3, m});
  }
  mutation_sweep<meta64>({packed_bytes<meta64>(a)}, 0x5eed0004);
}

TEST(IdSetBatchMutation, MetadataFree) {
  std::vector<id_plain<tg::none>> a, b;
  for (std::uint64_t k = 0; k < 40; ++k) a.push_back({k * k, {}});
  b = {{kMax, {}}, {0, {}}};
  mutation_sweep<tg::none, id_batch<tg::none>>(
      {id_bytes<tg::none>(std::vector<id_plain<tg::none>>{{3, {}}}), id_bytes<tg::none>(a),
       id_bytes<tg::none>(b)},
      0x5eed0011);
}

TEST(IdSetBatchMutation, TimestampMetadata) {
  std::vector<id_plain<std::uint64_t>> a;
  for (std::uint64_t k = 0; k < 30; ++k) a.push_back({k * 7, 1'700'000'000 + k});
  mutation_sweep<std::uint64_t, id_batch<std::uint64_t>>({id_bytes<std::uint64_t>(a)},
                                                         0x5eed0012);
}

TEST(IdSetBatchMutation, StringMetadata) {
  const std::vector<id_plain<std::string>> a = {
      {1, "www.example.com"}, {2, ""}, {3, "x"}, {9, std::string(200, 'q')}};
  mutation_sweep<std::string_view, id_batch<std::string_view>>(
      {id_bytes<std::string_view>(a)}, 0x5eed0013);
}
