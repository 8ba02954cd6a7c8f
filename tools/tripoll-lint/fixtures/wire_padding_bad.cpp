// Fixture: tripoll-wire-padding must flag every anchored bitwise struct
// whose sizeof exceeds the sum of its member sizes.  Markers: `EXPECT:
// <check>` on the line the diagnostic anchors to (the struct name line).
#include <array>
#include <cstdint>

namespace fixture {

using vertex_id = std::uint64_t;

// Classic tail-gap: 4-byte tag behind an 8-byte id -> 4 padding bytes.
struct tagged_id {  // EXPECT: tripoll-wire-padding
  vertex_id id = 0;
  std::uint32_t tag = 0;
};
TRIPOLL_WIRE_ASSERT(tagged_id, id, tag);

// Interior hole: u8 then u64 -> 7 bytes of padding in the middle.
struct header_like {  // EXPECT: tripoll-wire-padding
  std::uint8_t kind = 0;
  std::uint64_t length = 0;
};
TRIPOLL_WIRE_ASSERT(header_like, kind, length);

// Anchored through the annotation instead of a TRIPOLL_WIRE_ASSERT.
// tripoll-lint: wire-type
struct annotated_padded {  // EXPECT: tripoll-wire-padding
  std::uint16_t a = 0;
  std::uint64_t b = 0;
};

// Anchored as packed_batch metadata, which the archive memcpys when the
// type is trivially copyable.
struct padded_stamp {  // EXPECT: tripoll-wire-padding
  std::uint32_t lo = 0;
  std::uint64_t hi = 0;
};
inline void uses_batch(const packed_batch<padded_stamp>& b) { (void)b; }

// Anchored only as the metadata of an id-set packed_batch: the element type
// is the first template argument, not the key form after it.
struct padded_id_stamp {  // EXPECT: tripoll-wire-padding
  std::uint8_t kind = 0;
  std::uint64_t at = 0;
};
inline void uses_id_batch(const packed_batch<padded_id_stamp, batch_key::id>& b) { (void)b; }

// Enum with explicit narrow underlying type + multi-declarator members.
enum class color : std::uint8_t { red, green };

struct enum_padded {  // EXPECT: tripoll-wire-padding
  color c = color::red;
  std::uint32_t x = 0, y = 0;
};
TRIPOLL_WIRE_ASSERT(enum_padded, c, x, y);

// Nested struct member: the inner struct is packed, but the outer layout
// still pads the trailing u16 pair up to the u64 alignment.
struct inner_pair {
  std::uint16_t lo = 0;
  std::uint16_t hi = 0;
};

struct outer_padded {  // EXPECT: tripoll-wire-padding
  std::uint64_t key = 0;
  inner_pair p{};
};
TRIPOLL_WIRE_ASSERT(outer_padded, key, p);

}  // namespace fixture
