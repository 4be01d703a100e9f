// Randomized differential harness for every intersection kernel tier:
// binary, SSI, hybrid, branch-reduced merge, galloping search, RowBitmap,
// for_each_common, count_common_above, and the Intersector dispatch (both
// tiers) are all cross-checked against a trivial std::set_intersection
// oracle over >10k seeded pairs — in their counting and their visiting
// forms, which must visit exactly the oracle sequence and return the
// counting form's result bit for bit. Vectorized/block-skipping kernels break
// silently on boundary lengths, so the sweep deliberately pins lengths
// straddling SIMD-width boundaries (7,8,9, 15,16,17, 31,32,33) and the
// degenerate structures (empty, one-element, disjoint, subset, identical)
// alongside the random bulk. Runs under ASan/UBSan in the tier-1 CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "atlc/intersect/cost_model.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/intersect/tiered.hpp"
#include "atlc/util/rng.hpp"

namespace atlc::intersect {
namespace {

using V = std::vector<VertexId>;

V oracle(const V& a, const V& b) {
  V out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

V random_sorted_unique(std::size_t len, VertexId universe, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  V v;
  v.reserve(len);
  for (std::size_t i = 0; i < len * 2 && v.size() < len; ++i)
    v.push_back(static_cast<VertexId>(rng.next_below(universe)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Policies that pin a Tiered Intersector to one kernel each, so the
/// dispatcher's bookkeeping (bitmap builds/reuse, cost charging) is
/// exercised on every pair regardless of shape.
TierPolicy force_bitmap() { return {.bitmap_min_row = 0, .gallop_ratio = 1.0}; }
TierPolicy force_gallop() {
  return {.bitmap_min_row = static_cast<std::size_t>(-1), .gallop_ratio = 0.0};
}
TierPolicy force_merge() {
  return {.bitmap_min_row = static_cast<std::size_t>(-1),
          .gallop_ratio = 1e300};
}

/// The visiting form of an Intersector call must return the counting
/// form's Outcome bit for bit and visit exactly the oracle sequence. Each
/// form runs on its own fresh Intersector, so a bitmap build is priced in
/// both.
template <typename Call>
std::uint64_t check_visiting(const V& common, Call&& call, const char* kernel) {
  V visited;
  const Intersector::Outcome counted = call(CountOnly{});
  const Intersector::Outcome seen =
      call([&](VertexId x) { visited.push_back(x); });
  EXPECT_EQ(visited, common) << kernel;
  EXPECT_EQ(seen.common, counted.common) << kernel;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(seen.seconds),
            std::bit_cast<std::uint64_t>(counted.seconds))
      << kernel;
  EXPECT_STREQ(seen.event, counted.event) << kernel;
  return 4;
}

/// Cross-check every kernel tier on one (a, b) pair. All ids must be
/// < `universe` (RowBitmap precondition). Returns the number of
/// kernel-vs-oracle comparisons performed, so the suite can assert the
/// sweep actually reached the promised scale.
std::uint64_t check_pair(const V& a, const V& b, VertexId universe) {
  const V common = oracle(a, b);
  const auto expected = static_cast<std::uint64_t>(common.size());
  std::uint64_t checks = 0;
  const auto expect = [&](std::uint64_t got, const char* kernel) {
    ++checks;
    EXPECT_EQ(got, expected) << kernel << " |a|=" << a.size()
                             << " |b|=" << b.size() << " universe=" << universe;
  };

  // Paper tier, both argument orders (all are symmetric in value).
  expect(count_binary(a, b), "binary");
  expect(count_binary(b, a), "binary/swapped");
  expect(count_ssi(a, b), "ssi");
  expect(count_hybrid(a, b), "hybrid");

  // Tiered kernels, both orders.
  expect(count_merge_vec(a, b), "merge_vec");
  expect(count_merge_vec(b, a), "merge_vec/swapped");
  expect(count_gallop(a, b), "gallop");
  expect(count_gallop(b, a), "gallop/swapped");

  // RowBitmap: membership and the word-batched popcount probe.
  RowBitmap bm;
  bm.build(a, universe);
  expect(bm.count_in(b), "bitmap.count_in");
  ++checks;
  EXPECT_TRUE(bm.built_for(a));
  for (VertexId x : common) {
    ++checks;
    EXPECT_TRUE(bm.test(x)) << "bitmap.test " << x;
  }

  // for_each_common must visit exactly the oracle sequence, in order.
  V visited;
  for_each_common(a, b, [&](VertexId x) { visited.push_back(x); });
  ++checks;
  EXPECT_EQ(visited, common) << "for_each_common |a|=" << a.size()
                             << " |b|=" << b.size();

  // Every visiting kernel: the oracle sequence, in order, and the count.
  const auto expect_visits = [&](const char* kernel, auto&& kernel_fn) {
    V seen;
    expect(kernel_fn([&](VertexId x) { seen.push_back(x); }), kernel);
    ++checks;
    EXPECT_EQ(seen, common) << kernel << " |a|=" << a.size()
                            << " |b|=" << b.size();
  };
  expect_visits("visit_binary", [&](auto&& f) { return visit_binary(a, b, f); });
  expect_visits("visit_binary/swapped",
                [&](auto&& f) { return visit_binary(b, a, f); });
  expect_visits("visit_ssi", [&](auto&& f) { return visit_ssi(a, b, f); });
  expect_visits("visit_hybrid", [&](auto&& f) { return visit_hybrid(a, b, f); });
  expect_visits("visit_merge_vec",
                [&](auto&& f) { return visit_merge_vec(a, b, f); });
  expect_visits("visit_merge_vec/swapped",
                [&](auto&& f) { return visit_merge_vec(b, a, f); });
  expect_visits("visit_gallop", [&](auto&& f) { return visit_gallop(a, b, f); });
  expect_visits("visit_gallop/swapped",
                [&](auto&& f) { return visit_gallop(b, a, f); });
  expect_visits("bitmap.visit_in", [&](auto&& f) { return bm.visit_in(b, f); });

  // count_common_above at the boundary floors: below everything, equal to
  // the first/last common element, and above the entire universe.
  V floors = {0, universe};
  if (!common.empty()) {
    floors.push_back(common.front());
    floors.push_back(common.back());
    floors.push_back(common[common.size() / 2]);
  }
  for (VertexId floor : floors) {
    const auto above = static_cast<std::uint64_t>(std::count_if(
        common.begin(), common.end(), [&](VertexId v) { return v > floor; }));
    for (auto m : {Method::Binary, Method::SSI, Method::Hybrid}) {
      ++checks;
      EXPECT_EQ(count_common_above(a, b, floor, m), above)
          << "count_common_above floor=" << floor << " method "
          << method_name(m);
    }
  }

  // Intersector under the Paper tier: count_common priced by
  // CostModel::seconds, for every method.
  const CostModel cost;
  for (auto m : {Method::Binary, Method::SSI, Method::Hybrid}) {
    Intersector paper(m, Tier::Paper, cost, universe);
    const auto out = paper.intersect(a, b);
    expect(out.common, method_name(m));
    checks += 2;
    EXPECT_EQ(out.seconds, cost.seconds(m, a.size(), b.size()));
    EXPECT_STREQ(out.event, "intersect");
    checks += check_visiting(
        common,
        [&](auto&& f) {
          return Intersector(m, Tier::Paper, cost, universe).intersect(a, b, f);
        },
        method_name(m));
    checks += check_visiting(
        common,
        [&](auto&& f) {
          return Intersector(m, Tier::Paper, cost, universe)
              .intersect_transient(a, b, f);
        },
        method_name(m));
  }

  // Intersector under the Tiered tier, pinned to each kernel in turn.
  const struct {
    TierPolicy policy;
    const char* event;
  } forced[] = {{force_bitmap(), "intersect_bitmap"},
                {force_gallop(), "intersect_gallop"},
                {force_merge(), "intersect_merge"}};
  for (const auto& f : forced) {
    Intersector ti(Method::Hybrid, Tier::Tiered, cost, universe, f.policy);
    const auto out = ti.intersect(a, b);
    expect(out.common, f.event);
    ++checks;
    // An empty short side legitimately falls through Gallop to MergeVec.
    if (std::string_view(f.event) != "intersect_gallop" ||
        (!a.empty() && !b.empty()))
      EXPECT_STREQ(out.event, f.event);
    ++checks;
    EXPECT_GE(out.seconds, 0.0);
    checks += check_visiting(
        common,
        [&](auto&& visit) {
          return Intersector(Method::Hybrid, Tier::Tiered, cost, universe,
                             f.policy)
              .intersect(a, b, visit);
        },
        f.event);
    checks += check_visiting(
        common,
        [&](auto&& visit) {
          return Intersector(Method::Hybrid, Tier::Tiered, cost, universe,
                             f.policy)
              .intersect_transient(a, b, visit);
        },
        f.event);
  }
  // The transient entry point never builds a bitmap: bitmap-shaped pairs
  // gallop instead.
  Intersector transient(Method::Hybrid, Tier::Tiered, cost, universe,
                        force_bitmap());
  const auto out = transient.intersect_transient(a, b);
  expect(out.common, "transient");
  ++checks;
  EXPECT_STREQ(out.event, "intersect_gallop");
  EXPECT_EQ(transient.bitmap_builds(), 0u);
  return checks;
}

// --------------------------------------------------- boundary-length grid ---

// Lengths straddling 8/16/32-lane SIMD boundaries plus the degenerate ends.
constexpr std::size_t kBoundaryLens[] = {0,  1,  2,  7,  8,  9, 15,
                                         16, 17, 31, 32, 33, 64};

TEST(IntersectDiff, BoundaryLengthGrid) {
  std::uint64_t pairs = 0;
  for (std::size_t la : kBoundaryLens) {
    for (std::size_t lb : kBoundaryLens) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const auto universe =
            static_cast<VertexId>(3 * (la + lb) + 5 + seed % 3);
        const V a = random_sorted_unique(la, universe, seed * 7919 + la);
        const V b = random_sorted_unique(lb, universe, seed * 104729 + lb);
        check_pair(a, b, universe);
        ++pairs;
      }
    }
  }
  EXPECT_GE(pairs, 600u);
}

// ----------------------------------------------------- structured shapes ---

TEST(IntersectDiff, StructuredShapes) {
  for (std::size_t len : kBoundaryLens) {
    const auto universe = static_cast<VertexId>(4 * len + 8);
    // Identical lists.
    V evens, odds, subset;
    for (std::size_t i = 0; i < len; ++i) {
      evens.push_back(static_cast<VertexId>(2 * i));
      odds.push_back(static_cast<VertexId>(2 * i + 1));
      if (i % 2 == 0) subset.push_back(static_cast<VertexId>(2 * i));
    }
    check_pair(evens, evens, universe);   // identical
    check_pair(evens, odds, universe);    // fully disjoint, interleaved
    check_pair(evens, subset, universe);  // proper subset
    check_pair(evens, V{}, universe);     // vs empty
    if (!evens.empty()) {
      check_pair(evens, V{evens.front()}, universe);  // one-element, hit
      check_pair(evens, V{evens.back()}, universe);
      check_pair(evens, V{static_cast<VertexId>(universe - 1)},
                 universe);  // one-element, miss above all
    }
  }
}

// --------------------------------------------------------- random sweeps ---

// The bulk of the 10k-pair budget: random lengths and densities, including
// hub-vs-leaf skew so Gallop and Bitmap see realistic shapes.
TEST(IntersectDiff, RandomSweep10k) {
  std::uint64_t pairs = 0, checks = 0;
  util::Xoshiro256 shape_rng(2026);
  while (pairs < 9000) {
    const std::size_t la = shape_rng.next_below(96);
    const std::size_t lb = shape_rng.next_below(96);
    // Universe from tight (dense overlap) to loose (sparse overlap).
    const auto universe = static_cast<VertexId>(
        (la + lb + 2) * (1 + shape_rng.next_below(4)));
    const std::uint64_t seed = shape_rng();
    const V a = random_sorted_unique(la, universe, seed);
    const V b = random_sorted_unique(lb, universe, seed ^ 0xabcdef);
    checks += check_pair(a, b, universe);
    ++pairs;
  }
  // A smaller number of large skewed pairs: hub rows worth a bitmap and
  // gallop-friendly 100:1 ratios.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const VertexId universe = 1 << 14;
    const V hub = random_sorted_unique(2048, universe, seed);
    const V leaf = random_sorted_unique(16 + seed % 17, universe, seed * 31);
    checks += check_pair(hub, leaf, universe);
    const V mid = random_sorted_unique(512, universe, seed * 17);
    checks += check_pair(hub, mid, universe);
    pairs += 2;
  }
  EXPECT_GE(pairs, 9100u);
  EXPECT_GE(checks, 100000u);
}

// -------------------------------------------- dispatcher state machinery ---

TEST(IntersectDiff, BitmapReusedAcrossSameRow) {
  const VertexId universe = 4096;
  const V row = random_sorted_unique(1024, universe, 11);
  Intersector ti(Method::Hybrid, Tier::Tiered, CostModel{}, universe,
                 force_bitmap());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const V other = random_sorted_unique(64, universe, seed * 131);
    const auto out = ti.intersect(row, other);
    EXPECT_EQ(out.common, oracle(row, other).size());
    EXPECT_STREQ(out.event, "intersect_bitmap");
  }
  // One build serves the whole run of edges on the same row span.
  EXPECT_EQ(ti.bitmap_builds(), 1u);
}

TEST(IntersectDiff, BitmapRebuildClearsStaleBits) {
  const VertexId universe = 1024;
  const V first = random_sorted_unique(300, universe, 21);
  const V second = random_sorted_unique(40, universe, 22);
  RowBitmap bm;
  bm.build(first, universe);
  bm.build(second, universe);  // must clear all of `first`'s bits
  for (VertexId v = 0; v < universe; ++v) {
    const bool in_second = std::binary_search(second.begin(), second.end(), v);
    EXPECT_EQ(bm.test(v), in_second) << "vertex " << v;
  }
  EXPECT_EQ(bm.count_in(first), oracle(first, second).size());
}

TEST(IntersectDiff, SelectTierKernelRule) {
  const TierPolicy p;  // defaults: bitmap_min_row=256, gallop_ratio=32
  EXPECT_EQ(select_tier_kernel(256, 8, p), TierKernel::Bitmap);
  EXPECT_EQ(select_tier_kernel(4096, 4096, p), TierKernel::Bitmap);
  EXPECT_EQ(select_tier_kernel(255, 8, p), TierKernel::MergeVec);  // 31.9x
  EXPECT_EQ(select_tier_kernel(4, 128, p), TierKernel::Gallop);    // 32x
  EXPECT_EQ(select_tier_kernel(128, 4, p), TierKernel::Gallop);    // symmetric
  EXPECT_EQ(select_tier_kernel(100, 100, p), TierKernel::MergeVec);
  EXPECT_EQ(select_tier_kernel(0, 100, p), TierKernel::MergeVec);
  EXPECT_EQ(select_tier_kernel(5, 100, p), TierKernel::MergeVec);  // 20x < 32x
}

TEST(IntersectDiff, TierNamesNamed) {
  EXPECT_STREQ(tier_name(Tier::Paper), "paper");
  EXPECT_STREQ(tier_name(Tier::Tiered), "tiered");
  EXPECT_EQ(parse_tier("paper"), Tier::Paper);
  EXPECT_EQ(parse_tier("tiered"), Tier::Tiered);
  EXPECT_EQ(parse_tier("Tiered"), std::nullopt);
  EXPECT_STREQ(tier_kernel_name(TierKernel::MergeVec), "merge_vec");
  EXPECT_STREQ(tier_kernel_name(TierKernel::Gallop), "gallop");
  EXPECT_STREQ(tier_kernel_name(TierKernel::Bitmap), "bitmap");
}

}  // namespace
}  // namespace atlc::intersect
