// Unit tests for the serialization substrate (cereal stand-in).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "serial/buffer.hpp"
#include "serial/hash.hpp"
#include "serial/serialize.hpp"

namespace ts = tripoll::serial;

TEST(ByteBuffer, StartsEmpty) {
  ts::byte_buffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ByteBuffer, AppendGrows) {
  ts::byte_buffer buf;
  const char data[] = "hello";
  buf.append(data, 5);
  EXPECT_EQ(buf.size(), 5u);
  buf.append(data, 5);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(ByteBuffer, ReleaseMovesStorage) {
  ts::byte_buffer buf;
  const char data[] = "abc";
  buf.append(data, 3);
  auto bytes = buf.release();
  EXPECT_EQ(bytes.size(), 3u);
  EXPECT_TRUE(buf.empty());
}

TEST(ByteBuffer, MoveTransfersStorage) {
  ts::byte_buffer buf;
  const char data[] = "xyz";
  buf.append(data, 3);
  const auto* p = buf.data();
  ts::byte_buffer other(std::move(buf));
  EXPECT_EQ(other.data(), p);
  EXPECT_EQ(other.size(), 3u);
  EXPECT_TRUE(buf.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(buf.capacity(), 0u);
}

TEST(ByteBuffer, ClearKeepsCapacity) {
  ts::byte_buffer buf;
  const std::uint64_t v = 1;
  for (int i = 0; i < 100; ++i) buf.append(&v, sizeof(v));
  const auto cap = buf.capacity();
  EXPECT_GE(cap, 800u);
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.capacity(), cap);
}

TEST(ByteBuffer, PrepareCommitWritesInPlace) {
  ts::byte_buffer buf;
  std::byte* p = buf.prepare(4);
  p[0] = std::byte{1};
  p[1] = std::byte{2};
  buf.commit(2);
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.data()[1], std::byte{2});
}

TEST(BufferReader, ReadPastEndThrows) {
  ts::byte_buffer buf;
  const std::uint32_t v = 7;
  buf.append(&v, sizeof(v));
  ts::buffer_reader rd(buf.view());
  std::uint64_t too_big = 0;
  EXPECT_THROW(rd.read(&too_big, sizeof(too_big)), ts::deserialize_error);
}

TEST(BufferReader, TracksRemaining) {
  ts::byte_buffer buf;
  const std::uint64_t v = 42;
  buf.append(&v, sizeof(v));
  ts::buffer_reader rd(buf.view());
  EXPECT_EQ(rd.remaining(), 8u);
  std::uint32_t half = 0;
  rd.read(&half, sizeof(half));
  EXPECT_EQ(rd.remaining(), 4u);
  EXPECT_FALSE(rd.exhausted());
  rd.read(&half, sizeof(half));
  EXPECT_TRUE(rd.exhausted());
}

// --- round trips -------------------------------------------------------------

template <typename T>
void expect_roundtrip(const T& value) {
  EXPECT_EQ(ts::roundtrip(value), value);
}

TEST(Serialize, IntegralRoundtrips) {
  expect_roundtrip<std::int8_t>(-5);
  expect_roundtrip<std::uint8_t>(200);
  expect_roundtrip<std::int32_t>(std::numeric_limits<std::int32_t>::min());
  expect_roundtrip<std::uint64_t>(std::numeric_limits<std::uint64_t>::max());
  expect_roundtrip<bool>(true);
  expect_roundtrip<char>('x');
}

TEST(Serialize, FloatingRoundtrips) {
  expect_roundtrip(3.14159);
  expect_roundtrip(-0.0f);
  expect_roundtrip(std::numeric_limits<double>::infinity());
}

TEST(Serialize, StringRoundtrips) {
  expect_roundtrip(std::string{});
  expect_roundtrip(std::string{"amazon.com"});
  expect_roundtrip(std::string(10000, 'x'));
  std::string with_nulls = "a";
  with_nulls.push_back('\0');
  with_nulls += "b";
  expect_roundtrip(with_nulls);
}

TEST(Serialize, VectorOfPodRoundtrips) {
  expect_roundtrip(std::vector<int>{});
  expect_roundtrip(std::vector<int>{1, 2, 3});
  std::vector<std::uint64_t> big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * i;
  expect_roundtrip(big);
}

TEST(Serialize, VectorOfStringsRoundtrips) {
  expect_roundtrip(std::vector<std::string>{"", "a", "bb", "ccc"});
}

TEST(Serialize, NestedContainersRoundtrip) {
  expect_roundtrip(std::vector<std::vector<int>>{{1}, {}, {2, 3}});
  std::map<std::string, std::vector<int>> m{{"a", {1, 2}}, {"b", {}}};
  expect_roundtrip(m);
  std::unordered_map<int, std::string> um{{1, "one"}, {2, "two"}};
  expect_roundtrip(um);
  expect_roundtrip(std::set<int>{5, 1, 3});
}

TEST(Serialize, PairTupleRoundtrip) {
  expect_roundtrip(std::pair<int, std::string>{7, "seven"});
  expect_roundtrip(std::tuple<int, double, std::string>{1, 2.5, "x"});
  expect_roundtrip(std::tuple<>{});
}

TEST(Serialize, OptionalRoundtrip) {
  expect_roundtrip(std::optional<int>{});
  expect_roundtrip(std::optional<int>{42});
  expect_roundtrip(std::optional<std::string>{"present"});
}

TEST(Serialize, ArrayRoundtrip) {
  expect_roundtrip(std::array<int, 4>{1, 2, 3, 4});
}

struct custom_meta {
  std::uint64_t timestamp = 0;
  std::string label;
  std::vector<double> scores;

  template <typename Archive>
  void serialize(Archive& ar) {
    ar(timestamp, label, scores);
  }

  bool operator==(const custom_meta&) const = default;
};

TEST(Serialize, CustomTypeWithMemberSerialize) {
  custom_meta m{123456, "purchase", {0.5, 0.75}};
  expect_roundtrip(m);
}

TEST(Serialize, HeterogeneousSequenceInOneBuffer) {
  // The YGM property the paper highlights: messages of heterogeneous types
  // interleave in one byte stream.
  ts::byte_buffer buf;
  ts::pack(buf, 42, std::string{"str"}, std::vector<int>{1, 2},
           custom_meta{9, "m", {1.0}});
  ts::buffer_reader rd(buf.view());
  int i = 0;
  std::string s;
  std::vector<int> v;
  custom_meta m;
  ts::unpack(rd, i, s, v, m);
  EXPECT_EQ(i, 42);
  EXPECT_EQ(s, "str");
  EXPECT_EQ(v, (std::vector<int>{1, 2}));
  EXPECT_EQ(m, (custom_meta{9, "m", {1.0}}));
  EXPECT_TRUE(rd.exhausted());
}

namespace {
struct empty_tag {
  friend bool operator==(const empty_tag&, const empty_tag&) = default;
};
}  // namespace

TEST(Serialize, EmptyTypesOccupyZeroBytes) {
  EXPECT_EQ(ts::packed_size(empty_tag{}), 0u);
}

TEST(Serialize, EmptyTypeInsideTupleDoesNotClobberNeighbors) {
  // Regression: libstdc++ tuples apply empty-base optimization, so an empty
  // element can share an address with another element.  Deserializing by
  // memcpy into the empty member used to overwrite a byte of its neighbor.
  ts::byte_buffer buf;
  const std::uint64_t key = 0, from = 2, deg = 1;
  ts::pack(buf, key, from, deg, empty_tag{});
  ts::buffer_reader rd(buf.view());
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, empty_tag> args{};
  std::apply([&rd](auto&... unpacked) { ts::unpack(rd, unpacked...); }, args);
  EXPECT_EQ(std::get<0>(args), 0u);
  EXPECT_EQ(std::get<1>(args), 2u);
  EXPECT_EQ(std::get<2>(args), 1u);
  EXPECT_TRUE(rd.exhausted());
}

TEST(Serialize, EmptyTypeBetweenValuesRoundtrips) {
  ts::byte_buffer buf;
  ts::pack(buf, 7, empty_tag{}, std::string{"x"}, empty_tag{}, 9.5);
  ts::buffer_reader rd(buf.view());
  int a = 0;
  empty_tag t1, t2;
  std::string s;
  double d = 0;
  ts::unpack(rd, a, t1, s, t2, d);
  EXPECT_EQ(a, 7);
  EXPECT_EQ(s, "x");
  EXPECT_DOUBLE_EQ(d, 9.5);
}

TEST(Serialize, VariableLengthStringsNotPadded) {
  // Sec. 4.1.2: variable-length objects are sent without padding.
  const auto short_size = ts::packed_size(std::string{"ab"});
  const auto long_size = ts::packed_size(std::string(100, 'a'));
  EXPECT_LT(short_size, 8u);
  EXPECT_EQ(long_size - short_size, 98u);
}

TEST(Serialize, PackedSizeMatchesBuffer) {
  const std::tuple<int, std::string> value{3, "abc"};
  ts::byte_buffer buf;
  ts::pack(buf, value);
  EXPECT_EQ(buf.size(), ts::packed_size(value));
}

// --- varint ---------------------------------------------------------------------

TEST(Varint, SmallValuesOneByte) {
  ts::byte_buffer buf;
  ts::writer w(buf);
  w.write_varint(0);
  w.write_varint(127);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(Varint, RoundtripBoundaries) {
  const std::uint64_t values[] = {0,   1,    127,  128,   16383, 16384,
                                  1u << 21, 1ull << 42, std::numeric_limits<std::uint64_t>::max()};
  ts::byte_buffer buf;
  ts::writer w(buf);
  for (auto v : values) w.write_varint(v);
  ts::buffer_reader rd(buf.view());
  ts::reader r(rd);
  for (auto v : values) EXPECT_EQ(r.read_varint(), v);
  EXPECT_TRUE(rd.exhausted());
}

TEST(Serialize, VectorLengthPrefixBeyondBufferThrows) {
  // A corrupted length prefix must be caught before any allocation, even
  // when n * sizeof(T) wraps around.
  ts::byte_buffer buf;
  ts::writer w(buf);
  w.write_varint(std::numeric_limits<std::uint64_t>::max());
  ts::buffer_reader rd(buf.view());
  std::vector<std::uint64_t> v;
  EXPECT_THROW(ts::unpack(rd, v), ts::deserialize_error);
}

TEST(Serialize, StringLengthPrefixBeyondBufferThrows) {
  ts::byte_buffer buf;
  ts::writer w(buf);
  w.write_varint(1000);  // promises 1000 bytes that never come
  ts::buffer_reader rd(buf.view());
  std::string s;
  EXPECT_THROW(ts::unpack(rd, s), ts::deserialize_error);
}

TEST(Serialize, ReusedDestinationsShrinkAndGrow) {
  // Deserializing into live destinations exercises both the shrink
  // (resize+memcpy) and grow (assign) read paths.
  ts::byte_buffer buf;
  ts::pack(buf, std::string(100, 'a'), std::string(3, 'b'), std::string(200, 'c'));
  ts::pack(buf, std::vector<std::uint32_t>(50, 5), std::vector<std::uint32_t>(2, 7),
           std::vector<std::uint32_t>(80, 9));
  ts::buffer_reader rd(buf.view());
  std::string s;
  ts::unpack(rd, s);
  EXPECT_EQ(s, std::string(100, 'a'));
  ts::unpack(rd, s);
  EXPECT_EQ(s, std::string(3, 'b'));
  ts::unpack(rd, s);
  EXPECT_EQ(s, std::string(200, 'c'));
  std::vector<std::uint32_t> v;
  ts::unpack(rd, v);
  EXPECT_EQ(v, std::vector<std::uint32_t>(50, 5));
  ts::unpack(rd, v);
  EXPECT_EQ(v, std::vector<std::uint32_t>(2, 7));
  ts::unpack(rd, v);
  EXPECT_EQ(v, std::vector<std::uint32_t>(80, 9));
  EXPECT_TRUE(rd.exhausted());
}

TEST(Varint, TruncatedThrows) {
  ts::byte_buffer buf;
  const std::uint8_t continuation = 0x80;  // promises another byte that never comes
  buf.append(&continuation, 1);
  ts::buffer_reader rd(buf.view());
  ts::reader r(rd);
  EXPECT_THROW((void)r.read_varint(), ts::deserialize_error);
}

// --- property-style random round trips --------------------------------------------

class RandomRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(RandomRoundtrip, RandomStructuredValues) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_int_distribution<int> len(0, 64);
  std::uniform_int_distribution<int> chr('a', 'z');

  std::vector<std::pair<std::string, std::vector<std::uint32_t>>> value;
  const int entries = len(rng);
  for (int i = 0; i < entries; ++i) {
    std::string key;
    const int klen = len(rng);
    for (int j = 0; j < klen; ++j) key.push_back(static_cast<char>(chr(rng)));
    std::vector<std::uint32_t> nums(static_cast<std::size_t>(len(rng)));
    for (auto& n : nums) n = static_cast<std::uint32_t>(rng());
    value.emplace_back(std::move(key), std::move(nums));
  }
  expect_roundtrip(value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRoundtrip, ::testing::Range(0, 25));

// --- hashing ------------------------------------------------------------------------

TEST(Hash, Splitmix64Deterministic) {
  EXPECT_EQ(ts::splitmix64(42), ts::splitmix64(42));
  EXPECT_NE(ts::splitmix64(42), ts::splitmix64(43));
}

TEST(Hash, Splitmix64SpreadsLowBits) {
  // Consecutive inputs should land in different mod-k buckets reasonably often.
  int same_bucket = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    if (ts::splitmix64(i) % 16 == ts::splitmix64(i + 1) % 16) ++same_bucket;
  }
  EXPECT_LT(same_bucket, 200);  // ~62 expected for uniform
}

TEST(Hash, Fnv1aStrings) {
  EXPECT_EQ(ts::fnv1a("abc"), ts::fnv1a("abc"));
  EXPECT_NE(ts::fnv1a("abc"), ts::fnv1a("abd"));
  EXPECT_NE(ts::fnv1a(""), ts::fnv1a("a"));
}

TEST(Hash, Fnv1aKnownAnswers) {
  // Published FNV-1a 64-bit test vectors, through both forms.
  EXPECT_EQ(ts::fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(ts::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(ts::fnv1a("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(ts::fnv1a("foobar", 6), 0x85944171f73967e8ULL);
  // Folding ranges in sequence equals hashing their concatenation.
  EXPECT_EQ(ts::fnv1a("bar", 3, ts::fnv1a("foo", 3)), 0x85944171f73967e8ULL);
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(ts::hash_combine(ts::splitmix64(1), 2),
            ts::hash_combine(ts::splitmix64(2), 1));
}
