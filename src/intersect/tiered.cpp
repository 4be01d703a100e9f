#include "atlc/intersect/tiered.hpp"

#include "atlc/util/check.hpp"

namespace atlc::intersect {

std::uint64_t count_merge_vec(std::span<const VertexId> a,
                              std::span<const VertexId> b) {
  return visit_merge_vec(a, b, CountOnly{});
}

std::uint64_t count_gallop(std::span<const VertexId> a,
                           std::span<const VertexId> b) {
  return visit_gallop(a, b, CountOnly{});
}

void RowBitmap::build(std::span<const VertexId> row, VertexId universe) {
  const std::size_t want_words = (static_cast<std::size_t>(universe) + 63) / 64;
  if (words_.size() < want_words) {
    words_.resize(want_words, 0);
  } else {
    // Clear only the bits the previous row set — O(previous row), not
    // O(universe) — so hub-row rebuilds stay proportional to degree.
    for (const VertexId v : set_bits_) words_[v >> 6] = 0;
  }
  set_bits_.assign(row.begin(), row.end());
  for (const VertexId v : row) {
    ATLC_DCHECK(v < universe, "row id outside the bitmap universe");
    words_[v >> 6] |= std::uint64_t{1} << (v & 63);
  }
  row_data_ = row.data();
  row_size_ = row.size();
  built_ = true;
}

std::uint64_t RowBitmap::count_in(std::span<const VertexId> list) const {
  return visit_in(list, CountOnly{});
}

double Intersector::bitmap_for(std::span<const VertexId> row) {
  if (bitmap_.built_for(row)) return 0.0;
  bitmap_.build(row, universe_);
  ++bitmap_builds_;
  return cost_.seconds_bitmap_build(row.size());
}

}  // namespace atlc::intersect
