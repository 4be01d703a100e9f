#pragma once

// The tiered intersection kernels (ROADMAP item 1, DESIGN.md §9): the
// production-grade alternatives to the paper's scalar binary/SSI family.
// Three kernels cover the list-shape spectrum the way engineered triangle
// counters do (Sanders & Uhl; RapidsAtHKUST, PAPERS.md):
//
//   - count_merge_vec: branch-reduced quad-skip merge for the long tail of
//     similar-length pairs (conditional-move stepping, 4-wide block skips);
//   - count_gallop: galloping (exponential + binary) search for highly
//     skewed pairs, O(|short| log(|long|/|short|));
//   - RowBitmap: a dense bitmap over the vertex universe built once per hub
//     row and probed word-at-a-time with popcount for every edge of that
//     row.
//
// Intersector packages the choice between the paper family and these
// kernels, the per-pair dispatch (select_tier_kernel), the bitmap-reuse
// lifetime, and the virtual-time pricing behind one call. All kernels are
// exact — tests/test_intersect_diff.cpp cross-checks every
// tier against std::set_intersection over ~10k randomized pairs.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "atlc/intersect/cost_model.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/util/check.hpp"

namespace atlc::intersect {

/// |a ∩ b| via a branch-reduced merge, visiting each common id: the
/// two-pointer SSI walk with conditional-increment stepping (compiles to
/// setcc/cmov, no mispredicted compare branch) plus a 4-wide block skip when
/// one side's next quad lies entirely below the other side's cursor.
/// Preconditions: sorted ascending, no duplicates.
template <CommonVisitor F>
std::uint64_t visit_merge_vec(std::span<const VertexId> a,
                              std::span<const VertexId> b, F&& visit) {
  const std::size_t na = a.size(), nb = b.size();
  std::uint64_t count = 0;
  std::size_t i = 0, k = 0;
  // Quad-skip main loop: when one side's next four elements all sit below
  // the other side's cursor, skip them wholesale (one compare per four
  // elements on disjoint stretches); otherwise take one branch-reduced
  // step — the equality/advance decisions become flag-setting arithmetic
  // instead of an unpredictable three-way branch.
  while (i + 4 <= na && k + 4 <= nb) {
    if (a[i + 3] < b[k]) {
      i += 4;
      continue;
    }
    if (b[k + 3] < a[i]) {
      k += 4;
      continue;
    }
    const VertexId x = a[i], y = b[k];
    count += (x == y);
    if (x == y) visit(x);
    i += (x <= y);
    k += (y <= x);
  }
  // Branch-reduced tail for the final < 4 elements of either side (the
  // SIMD-width-straddling lengths the differential harness pins down).
  while (i < na && k < nb) {
    const VertexId x = a[i], y = b[k];
    count += (x == y);
    if (x == y) visit(x);
    i += (x <= y);
    k += (y <= x);
  }
  return count;
}

/// |a ∩ b| via galloping search, visiting each common id: each key of the
/// shorter list exponentially advances a shared cursor in the longer list,
/// then binary-searches the bracketed window. Wins when one list dwarfs the
/// other (hub vs leaf).
template <CommonVisitor F>
std::uint64_t visit_gallop(std::span<const VertexId> a,
                           std::span<const VertexId> b, F&& visit) {
  // Keys from the shorter list, galloped cursor over the longer one.
  if (a.size() > b.size()) std::swap(a, b);
  std::uint64_t count = 0;
  std::size_t base = 0;  // b[0, base) is strictly below the current key
  for (const VertexId x : a) {
    if (base >= b.size()) break;
    // Exponential advance: grow the window until b[hi] >= x (or the end).
    std::size_t lo = base, hi = base, step = 1;
    while (hi < b.size() && b[hi] < x) {
      lo = hi + 1;
      hi = lo + step;
      step <<= 1;
    }
    hi = std::min(hi, b.size());
    const auto it = std::lower_bound(b.begin() + static_cast<std::ptrdiff_t>(lo),
                                     b.begin() + static_cast<std::ptrdiff_t>(hi),
                                     x);
    base = static_cast<std::size_t>(it - b.begin());
    if (base < b.size() && b[base] == x) {
      ++count;
      visit(x);
      ++base;  // keys are strictly ascending; the match can't repeat
    }
  }
  return count;
}

/// |a ∩ b| via visit_merge_vec, counting only.
[[nodiscard]] std::uint64_t count_merge_vec(std::span<const VertexId> a,
                                            std::span<const VertexId> b);

/// |a ∩ b| via visit_gallop, counting only.
[[nodiscard]] std::uint64_t count_gallop(std::span<const VertexId> a,
                                         std::span<const VertexId> b);

/// Dense bitmap over the vertex universe [0, universe). Built from one
/// sorted adjacency row, then probed by sorted candidate lists: probes are
/// batched per 64-bit word (all candidates falling in one word OR into a
/// mask, resolved with a single AND + popcount), which exploits the
/// clustering sorted adjacencies exhibit. Rebuilding clears only the
/// previously set bits (O(previous row length), not O(universe)).
class RowBitmap {
 public:
  /// (Re)build for `row`. All ids in `row` — and every later probe — must
  /// be < `universe`. Keeps its own copy of the set positions, so `row`
  /// need not outlive the call.
  void build(std::span<const VertexId> row, VertexId universe);

  /// True iff the current contents were built from exactly this span
  /// (pointer + length identity). The engine's local adjacency rows are
  /// stable for a whole pipeline pass, so span identity keys the per-row
  /// reuse within one (see Intersector for the pass lifetime). The
  /// `built_` flag guards the fresh-bitmap case: an empty span's data() is
  /// nullptr, which would otherwise match the default member state and let
  /// a caller probe a never-sized word array.
  [[nodiscard]] bool built_for(std::span<const VertexId> row) const {
    return built_ && row.data() == row_data_ && row.size() == row_size_;
  }

  [[nodiscard]] bool test(VertexId v) const {
    return (words_[v >> 6] >> (v & 63)) & 1u;
  }

  /// |row ∩ list| for a sorted, duplicate-free `list` (word-batched
  /// popcount probes; see class comment), visiting each common id: the set
  /// bits of each resolved word, lowest first.
  template <CommonVisitor F>
  std::uint64_t visit_in(std::span<const VertexId> list, F&& visit) const {
    std::uint64_t count = 0;
    std::size_t i = 0;
    while (i < list.size()) {
      const std::size_t w = list[i] >> 6;
      ATLC_DCHECK(w < words_.size(), "probe id outside the bitmap universe");
      // Gather every candidate landing in this 64-bit word into one mask,
      // then resolve them all with a single AND + popcount.
      std::uint64_t mask = 0;
      do {
        mask |= std::uint64_t{1} << (list[i] & 63);
        ++i;
      } while (i < list.size() && (list[i] >> 6) == w);
      const std::uint64_t hits = words_[w] & mask;
      count += static_cast<std::uint64_t>(std::popcount(hits));
      for (std::uint64_t m = hits; m != 0; m &= m - 1)
        visit(static_cast<VertexId>(w * 64 + std::countr_zero(m)));
    }
    return count;
  }

  /// |row ∩ list| (visit_in, counting only).
  [[nodiscard]] std::uint64_t count_in(std::span<const VertexId> list) const;

  [[nodiscard]] std::size_t row_size() const { return row_size_; }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<VertexId> set_bits_;  ///< copy of the row, for O(row) clears
  const VertexId* row_data_ = nullptr;
  std::size_t row_size_ = 0;
  bool built_ = false;
};

/// The one priced intersection every counting engine kernel goes through
/// (LCC/TC, Jaccard/overlap, the serve `lcc(v)` query): |row ∩ other| under
/// the configured kernel generation, plus the modeled virtual-time cost of
/// the work performed and the trace event name that labels it.
///
///   - Tier::Paper — count_common(method) priced by
///     CostModel::seconds(method, |a|, |b|): the paper's scalar family.
///   - Tier::Tiered — a kernel per (row, other) pair via select_tier_kernel,
///     priced by CostModel::seconds_tiered plus any bitmap build it
///     triggered.
///
/// Lifetime: one pipeline pass. The Tiered bitmap is keyed on the span
/// identity (pointer + length) of the `row` side, which is sound only while
/// every row it has seen keeps its contents. Local adjacency rows are
/// stable within a pass, but the streaming and serving engines rebuild them
/// between epochs — a rebuilt row may reuse the old address and length —
/// so an Intersector must never outlive a batch apply (DESIGN.md §9).
class Intersector {
 public:
  /// `universe` bounds every vertex id that will appear in rows or probe
  /// lists (the engine passes the global vertex count). `policy` is the
  /// Tiered shape thresholds; the engine always uses the defaults, and
  /// tests pass pinned policies to force one kernel.
  Intersector(Method method, Tier tier, const CostModel& cost,
              VertexId universe, const TierPolicy& policy = {})
      : method_(method),
        tier_(tier),
        cost_(cost),
        universe_(universe),
        policy_(policy) {}

  struct Outcome {
    std::uint64_t common = 0;
    double seconds = 0.0;  ///< modeled cost, including any bitmap build
    /// Trace event name: "intersect" under Paper, "intersect_{bitmap,
    /// gallop,merge}" per Tiered kernel (atlc_trace histograms
    /// intersection sizes per kernel by it).
    const char* event = "intersect";
  };

  /// |row ∩ other|. `row` is the side stable for the whole pass (the
  /// rank's local adjacency — the bitmap candidate); `other` the transient
  /// fetched side, which is only ever probed, never cached. `visit(w)` is
  /// called for each common id w in the same pass (CountOnly, the default,
  /// visits nothing); the Outcome does not depend on the visitor — the
  /// same kernel runs, at the same price.
  template <CommonVisitor F = CountOnly>
  [[nodiscard]] Outcome intersect(std::span<const VertexId> row,
                                  std::span<const VertexId> other,
                                  F&& visit = {}) {
    if (tier_ == Tier::Paper)
      return {visit_common(row, other, method_, visit),
              cost_.seconds(method_, row.size(), other.size())};
    return run_tiered(select_tier_kernel(row.size(), other.size(), policy_),
                      row, other, visit);
  }

  /// |a ∩ b| when NEITHER side is stable — both may alias fetch-ring slots
  /// (the 2D segment engine, where even "this rank's" row segments arrive
  /// through the ring from sibling ranks). Span identity is meaningless for
  /// recycled slots — the same pointer holds different contents a few
  /// fetches later — so the bitmap tier is never selected; skewed pairs
  /// gallop, the rest merge. Never touches the bitmap state, so transient
  /// and row-reuse calls can interleave safely. `visit` as in intersect().
  template <CommonVisitor F = CountOnly>
  [[nodiscard]] Outcome intersect_transient(std::span<const VertexId> a,
                                            std::span<const VertexId> b,
                                            F&& visit = {}) {
    if (tier_ == Tier::Paper)
      return {visit_common(a, b, method_, visit),
              cost_.seconds(method_, a.size(), b.size())};
    TierKernel kernel = select_tier_kernel(a.size(), b.size(), policy_);
    // No stable row, no amortised build: gallop is the right kernel for
    // the bitmap-shaped (highly skewed) pairs.
    if (kernel == TierKernel::Bitmap) kernel = TierKernel::Gallop;
    return run_tiered(kernel, a, b, visit);
  }

  /// Bitmap (re)builds so far (always 0 under Paper). Per-kernel pair
  /// counts are in the trace, by Outcome::event.
  [[nodiscard]] std::uint64_t bitmap_builds() const { return bitmap_builds_; }

 private:
  template <CommonVisitor F>
  Outcome run_tiered(TierKernel kernel, std::span<const VertexId> a,
                     std::span<const VertexId> b, F& visit) {
    Outcome out;
    switch (kernel) {
      case TierKernel::Bitmap:
        out.seconds += bitmap_for(a);
        out.common = bitmap_.visit_in(b, visit);
        out.event = "intersect_bitmap";
        break;
      case TierKernel::Gallop:
        out.common = visit_gallop(a, b, visit);
        out.event = "intersect_gallop";
        break;
      case TierKernel::MergeVec:
        out.common = visit_merge_vec(a, b, visit);
        out.event = "intersect_merge";
        break;
    }
    out.seconds += cost_.seconds_tiered(kernel, a.size(), b.size());
    return out;
  }

  /// Makes the bitmap hold `row`, rebuilding it unless it already does;
  /// returns the modeled cost of the build (0 on reuse).
  double bitmap_for(std::span<const VertexId> row);

  Method method_;
  Tier tier_;
  CostModel cost_;
  VertexId universe_;
  TierPolicy policy_;
  RowBitmap bitmap_;
  std::uint64_t bitmap_builds_ = 0;
};

}  // namespace atlc::intersect
