#include "atlc/intersect/intersect.hpp"

#include <algorithm>
#include <bit>

namespace atlc::intersect {

const char* method_name(Method m) {
  switch (m) {
    case Method::Binary: return "binary";
    case Method::SSI: return "ssi";
    case Method::Hybrid: return "hybrid";
  }
  return "?";
}

std::optional<Method> parse_method(std::string_view name) {
  for (const Method m : {Method::Binary, Method::SSI, Method::Hybrid})
    if (name == method_name(m)) return m;
  return std::nullopt;
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::Paper: return "paper";
    case Tier::Tiered: return "tiered";
  }
  return "?";
}

const char* tier_kernel_name(TierKernel k) {
  switch (k) {
    case TierKernel::MergeVec: return "merge_vec";
    case TierKernel::Gallop: return "gallop";
    case TierKernel::Bitmap: return "bitmap";
  }
  return "?";
}

TierKernel select_tier_kernel(std::size_t row_len, std::size_t other_len,
                              const TierPolicy& policy) {
  if (row_len >= policy.bitmap_min_row) return TierKernel::Bitmap;
  const auto lo = static_cast<double>(std::min(row_len, other_len));
  const auto hi = static_cast<double>(std::max(row_len, other_len));
  if (lo > 0.0 && hi / lo >= policy.gallop_ratio) return TierKernel::Gallop;
  return TierKernel::MergeVec;
}

std::uint64_t count_binary(std::span<const VertexId> a,
                           std::span<const VertexId> b) {
  // Keys from the shorter list, search tree over the longer one.
  if (a.size() > b.size()) std::swap(a, b);
  std::uint64_t counter = 0;
  for (VertexId x : a)
    if (std::binary_search(b.begin(), b.end(), x)) ++counter;
  return counter;
}

std::uint64_t count_ssi(std::span<const VertexId> a,
                        std::span<const VertexId> b) {
  std::uint64_t counter = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++counter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return counter;
}

bool prefer_ssi(std::size_t len_a, std::size_t len_b) {
  if (len_a > len_b) std::swap(len_a, len_b);
  if (len_a == 0 || len_b == 0) return true;  // trivially cheap either way
  // |B|/|A| <= log2(|B|) - 1  (paper Eq. 3). bit_width(x)-1 == floor(log2 x).
  const double log2_b = static_cast<double>(std::bit_width(len_b) - 1);
  return static_cast<double>(len_b) / static_cast<double>(len_a) <=
         log2_b - 1.0;
}

std::uint64_t count_hybrid(std::span<const VertexId> a,
                           std::span<const VertexId> b) {
  return prefer_ssi(a.size(), b.size()) ? count_ssi(a, b) : count_binary(a, b);
}

std::uint64_t count_common(std::span<const VertexId> a,
                           std::span<const VertexId> b, Method m) {
  switch (m) {
    case Method::Binary: return count_binary(a, b);
    case Method::SSI: return count_ssi(a, b);
    case Method::Hybrid: return count_hybrid(a, b);
  }
  return 0;
}

std::span<const VertexId> suffix_above(std::span<const VertexId> s,
                                       VertexId floor) {
  const auto it = std::upper_bound(s.begin(), s.end(), floor);
  return s.subspan(static_cast<std::size_t>(it - s.begin()));
}

std::uint64_t count_common_above(std::span<const VertexId> a,
                                 std::span<const VertexId> b, VertexId floor,
                                 Method m) {
  return count_common(suffix_above(a, floor), suffix_above(b, floor), m);
}

}  // namespace atlc::intersect
