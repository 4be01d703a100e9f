#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "atlc/graph/types.hpp"

namespace atlc::intersect {

using graph::VertexId;

/// Intersection kernel selector (paper Section II-C / III-C).
enum class Method : std::uint8_t {
  Binary,  ///< Algorithm 1: binary-search each key of the shorter list
  SSI,     ///< Algorithm 2: sorted set intersection (two-pointer merge)
  Hybrid,  ///< per-pair choice via the Eq. (3) frontier rule
};

[[nodiscard]] const char* method_name(Method m);

/// Inverse of method_name ("binary" / "ssi" / "hybrid"); nullopt for any
/// other name.
[[nodiscard]] std::optional<Method> parse_method(std::string_view name);

/// Kernel generation serving local intersections. `Paper` is the scalar
/// binary/SSI/hybrid family above (what the paper-figure bench scenarios
/// pin, so their virtual-time baselines stay bit-identical); `Tiered` — the
/// engine default — dispatches per list shape to the bitmap/galloping/
/// branch-reduced-merge kernels in tiered.hpp (DESIGN.md §9).
enum class Tier : std::uint8_t { Paper, Tiered };

[[nodiscard]] const char* tier_name(Tier t);

/// Inverse of tier_name ("paper" / "tiered"); nullopt for any other name.
[[nodiscard]] std::optional<Tier> parse_tier(std::string_view name);

/// The concrete kernel the Tiered dispatch picked for one pair — also the
/// key the cost model prices tiered intersections under.
enum class TierKernel : std::uint8_t {
  MergeVec,  ///< branch-reduced quad-skip merge (the long-tail default)
  Gallop,    ///< galloping binary search (highly skewed pairs)
  Bitmap,    ///< dense row bitmap + word-AND popcount (hub rows)
};

[[nodiscard]] const char* tier_kernel_name(TierKernel k);

/// Shape thresholds of the Tiered dispatch (an Intersector constructor
/// argument; the engine always runs the defaults).
struct TierPolicy {
  /// Rows at least this long get a reusable dense bitmap ("hub rows"); the
  /// build cost amortises over the row's contiguous run of edges in the
  /// pipeline's edge stream (DESIGN.md §9).
  std::size_t bitmap_min_row = 256;
  /// Below the bitmap threshold, pairs with |long|/|short| at or above this
  /// ratio gallop; the rest take the branch-reduced merge.
  double gallop_ratio = 32.0;
};

/// The Tiered selection rule: Bitmap if `row_len` (the reusable side)
/// reaches `policy.bitmap_min_row`, else Gallop above the skew ratio, else
/// MergeVec.
[[nodiscard]] TierKernel select_tier_kernel(std::size_t row_len,
                                            std::size_t other_len,
                                            const TierPolicy& policy);

/// The visitor the counting kernels pass: it ignores every id, so each
/// count_* function is its visit_* kernel with the visit compiled away and
/// the two forms cannot drift apart.
struct CountOnly {
  void operator()(VertexId) const noexcept {}
};

/// A visitor for the visit_* kernels: called once per common id, in
/// ascending id order, in the same pass that counts.
template <typename F>
concept CommonVisitor = std::invocable<F&, VertexId>;

/// Eq. (3): SSI is predicted faster than binary search iff
/// |B|/|A| <= log2(|B|) - 1, with |A| <= |B|.
[[nodiscard]] bool prefer_ssi(std::size_t len_a, std::size_t len_b);

/// |a ∩ b| via binary search (paper Algorithm 1), visiting each common id.
/// Internally searches the shorter list's elements in the longer list —
/// "one should always assign the longer list as the search tree and the
/// shorter one as the array of keys". Preconditions: both spans sorted
/// ascending, no duplicates.
template <CommonVisitor F>
std::uint64_t visit_binary(std::span<const VertexId> a,
                           std::span<const VertexId> b, F&& visit) {
  // Keys from the shorter list, search tree over the longer one.
  if (a.size() > b.size()) std::swap(a, b);
  std::uint64_t counter = 0;
  for (const VertexId x : a) {
    if (std::binary_search(b.begin(), b.end(), x)) {
      ++counter;
      visit(x);
    }
  }
  return counter;
}

/// |a ∩ b| via sorted set intersection (paper Algorithm 2, the two-pointer
/// merge), visiting each common id.
template <CommonVisitor F>
std::uint64_t visit_ssi(std::span<const VertexId> a,
                        std::span<const VertexId> b, F&& visit) {
  std::uint64_t counter = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++counter;
      visit(a[i]);
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

/// |a ∩ b| choosing the kernel per Eq. (3) (paper hybrid method), visiting
/// each common id.
template <CommonVisitor F>
std::uint64_t visit_hybrid(std::span<const VertexId> a,
                           std::span<const VertexId> b, F&& visit) {
  return prefer_ssi(a.size(), b.size()) ? visit_ssi(a, b, visit)
                                        : visit_binary(a, b, visit);
}

/// Dispatch on a runtime-selected method, visiting each common id.
template <CommonVisitor F>
std::uint64_t visit_common(std::span<const VertexId> a,
                           std::span<const VertexId> b, Method m, F&& visit) {
  switch (m) {
    case Method::Binary: return visit_binary(a, b, visit);
    case Method::SSI: return visit_ssi(a, b, visit);
    case Method::Hybrid: return visit_hybrid(a, b, visit);
  }
  return 0;
}

/// |a ∩ b| via binary search (visit_binary, counting only).
[[nodiscard]] std::uint64_t count_binary(std::span<const VertexId> a,
                                         std::span<const VertexId> b);

/// |a ∩ b| via sorted set intersection (visit_ssi, counting only).
[[nodiscard]] std::uint64_t count_ssi(std::span<const VertexId> a,
                                      std::span<const VertexId> b);

/// |a ∩ b| choosing the kernel per Eq. (3) (paper hybrid method).
[[nodiscard]] std::uint64_t count_hybrid(std::span<const VertexId> a,
                                         std::span<const VertexId> b);

/// Dispatch on a runtime-selected method.
[[nodiscard]] std::uint64_t count_common(std::span<const VertexId> a,
                                         std::span<const VertexId> b,
                                         Method m = Method::Hybrid);

/// |{x in a ∩ b : x > floor}| — the upper-triangle restriction of paper
/// Section II-C that de-duplicates triangle enumeration: when processing
/// edge (i,j), only common neighbors k with k > j are counted.
[[nodiscard]] std::uint64_t count_common_above(std::span<const VertexId> a,
                                               std::span<const VertexId> b,
                                               VertexId floor,
                                               Method m = Method::Hybrid);

/// Trim `s` to the suffix with elements strictly greater than `floor`.
[[nodiscard]] std::span<const VertexId> suffix_above(
    std::span<const VertexId> s, VertexId floor);

/// Visit every element of a ∩ b in ascending order (visit_ssi without the
/// count). Kernels that need the common neighbors themselves — Adamic–Adar
/// weights each by its degree — use this; its virtual-time cost is charged
/// as an SSI intersection (CostModel::seconds_enumerate) since it performs
/// exactly that merge. Preconditions: sorted, no duplicates.
template <CommonVisitor F>
void for_each_common(std::span<const VertexId> a, std::span<const VertexId> b,
                     F&& visit) {
  (void)visit_ssi(a, b, visit);
}

}  // namespace atlc::intersect
