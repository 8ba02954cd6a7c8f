// dense_index.hpp -- first-seen dense numbering of 64-bit ids.
//
// The builder numbers a rank's source and neighbor ids through it before a
// counting scatter lays them out as CSR rows (graph/builder.hpp), and the
// survey's dry run numbers the targets q each rank would push to before the
// same kind of scatter groups their wedge sources (core/survey.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace tripoll::core {

/// Dense positions for a set of distinct ids.  add() files each id in an
/// open-addressing table (top bits of the multiplicative hash
/// core::probe_table uses, grown at load 1/2) and returns its position in
/// first-seen order; find() looks an id up without adding it; sort() then
/// orders `ids` ascending.  Positions are 32-bit, so one index holds at most
/// 2^32 - 2 distinct ids.
class dense_index {
 public:
  /// find()'s answer for an id never added.
  static constexpr std::uint32_t npos = std::numeric_limits<std::uint32_t>::max();

  std::vector<std::uint64_t> ids;  ///< distinct, first-seen order until sort()

  std::uint32_t add(std::uint64_t v) {
    for (std::size_t s = home(v);; s = (s + 1) & mask_) {
      if (slots_[s].pos == 0) {
        if (ids.size() + 1 >= npos) {
          throw std::length_error("tripoll: dense_index: too many distinct ids");
        }
        ids.push_back(v);
        slots_[s] = {v, static_cast<std::uint32_t>(ids.size())};
        if (2 * ids.size() > mask_) grow();
        return static_cast<std::uint32_t>(ids.size() - 1);
      }
      if (slots_[s].id == v) return slots_[s].pos - 1;
    }
  }

  /// The position add() gave `v`, or npos.  Valid until sort().
  [[nodiscard]] std::uint32_t find(std::uint64_t v) const noexcept {
    for (std::size_t s = home(v);; s = (s + 1) & mask_) {
      if (slots_[s].pos == 0) return npos;
      if (slots_[s].id == v) return slots_[s].pos - 1;
    }
  }

  /// Sort `ids` ascending; entry k of the result is the sorted position of
  /// the id add() first numbered k.
  [[nodiscard]] std::vector<std::uint32_t> sort() {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> by_id(ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      by_id[k] = {ids[k], static_cast<std::uint32_t>(k)};
    }
    std::sort(by_id.begin(), by_id.end());
    std::vector<std::uint32_t> sorted_pos(ids.size());
    for (std::size_t j = 0; j < by_id.size(); ++j) {
      ids[j] = by_id[j].first;
      sorted_pos[by_id[j].second] = static_cast<std::uint32_t>(j);
    }
    return sorted_pos;
  }

 private:
  struct slot {
    std::uint64_t id;
    std::uint32_t pos;  ///< first-seen position + 1; 0 marks an empty slot
  };

  [[nodiscard]] std::size_t home(std::uint64_t v) const noexcept {
    return static_cast<std::size_t>((v * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<slot> old = std::exchange(slots_, std::vector<slot>(2 * (mask_ + 1)));
    mask_ = 2 * mask_ + 1;
    --shift_;
    for (const slot& o : old) {
      if (o.pos == 0) continue;
      std::size_t s = home(o.id);
      while (slots_[s].pos != 0) s = (s + 1) & mask_;
      slots_[s] = o;
    }
  }

  std::vector<slot> slots_ = std::vector<slot>(64);
  std::size_t mask_ = 63;
  unsigned shift_ = 64 - 6;
};

}  // namespace tripoll::core
