#include "atlc/core/lcc.hpp"

#include <optional>
#include <span>
#include <vector>

#include "atlc/graph/dodg.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/intersect/tiered.hpp"
#include "atlc/util/check.hpp"

namespace atlc::core {

namespace {

/// Trace event name of a tiered intersect invocation (per-tier instants let
/// atlc_trace histogram intersection sizes per kernel).
const char* intersect_event_name(intersect::TierKernel k) {
  switch (k) {
    case intersect::TierKernel::Bitmap: return "intersect_bitmap";
    case intersect::TierKernel::Gallop: return "intersect_gallop";
    case intersect::TierKernel::MergeVec: return "intersect_merge";
  }
  return "intersect";
}

/// The LCC/TC edge kernel (paper Algorithm 3 inner loop): intersect adj(v)
/// with the fetched adj(j), optionally restricted to the upper triangle,
/// charge the intersection's modeled cost, and accumulate t(v). When
/// `tiered` is non-null the Tiered kernel generation serves the
/// intersection instead of the paper's scalar family — same counts, tiered
/// pricing. The local adj(v) is always the bitmap (reusable) side: it is
/// stable for the whole run, unlike the ring-slot-backed adj_j.
auto lcc_kernel(rma::RankCtx& ctx, const EngineConfig& config,
                std::vector<std::uint64_t>& triangles,
                intersect::TieredIntersector* tiered) {
  return [&ctx, &config, &triangles, tiered](VertexId lv, VertexId j,
                                             std::span<const VertexId> adj_v,
                                             std::span<const VertexId> adj_j) {
    auto lhs = adj_v;
    auto rhs = adj_j;
    if (config.upper_triangle_only) {
      lhs = intersect::suffix_above(lhs, j);
      rhs = intersect::suffix_above(rhs, j);
    }
    std::uint64_t common;
    if (tiered != nullptr) {
      const auto out = tiered->intersect(lhs, rhs);
      common = out.common;
      if (ctx.tracer().enabled())
        ctx.tracer().instant(intersect_event_name(out.kernel),
                             {"size", lhs.size() + rhs.size()});
      ctx.charge_compute(out.seconds);
    } else {
      common = intersect::count_common(lhs, rhs, config.method);
      if (ctx.tracer().enabled())
        ctx.tracer().instant("intersect", {"size", lhs.size() + rhs.size()});
      ctx.charge_compute(config.cost.seconds(config.method, lhs.size(),
                                             rhs.size()));
    }
    triangles[lv] += common;
  };
}

/// The segment-kernel twin of lcc_kernel for Grid2D runs: one invocation
/// per (local edge, column block), accumulating the block-partial
/// |seg(v,b) ∩ seg(j,b)| into t(v). Summed over blocks this reproduces the
/// whole-row count exactly (the blocks partition the neighbor id range, and
/// suffix_above distributes over that partition). Both spans may be
/// ring-slot-backed, so the tiered path must use intersect_transient —
/// span-identity bitmap reuse would serve a stale bitmap once a slot is
/// recycled.
auto lcc_segment_kernel(rma::RankCtx& ctx, const EngineConfig& config,
                        std::vector<std::uint64_t>& triangles,
                        intersect::TieredIntersector* tiered) {
  return [&ctx, &config, &triangles, tiered](
             VertexId lv, VertexId j, std::uint32_t /*block*/,
             std::span<const VertexId> seg_v, std::span<const VertexId> seg_j) {
    auto lhs = seg_v;
    auto rhs = seg_j;
    if (config.upper_triangle_only) {
      lhs = intersect::suffix_above(lhs, j);
      rhs = intersect::suffix_above(rhs, j);
    }
    std::uint64_t common;
    if (tiered != nullptr) {
      const auto out = tiered->intersect_transient(lhs, rhs);
      common = out.common;
      if (ctx.tracer().enabled())
        ctx.tracer().instant(intersect_event_name(out.kernel),
                             {"size", lhs.size() + rhs.size()});
      ctx.charge_compute(out.seconds);
    } else {
      common = intersect::count_common(lhs, rhs, config.method);
      if (ctx.tracer().enabled())
        ctx.tracer().instant("intersect", {"size", lhs.size() + rhs.size()});
      ctx.charge_compute(config.cost.seconds(config.method, lhs.size(),
                                             rhs.size()));
    }
    triangles[lv] += common;
  };
}

}  // namespace

RankResult compute_lcc_rank(rma::RankCtx& ctx, const DistGraph& dg,
                            const EngineConfig& config,
                            EdgePipeline& pipeline) {
  ATLC_CHECK(dg.partition.col_blocks() == 1,
             "compute_lcc_rank is the whole-row (1D) path; Grid2D runs go "
             "through run_distributed_lcc/tc, which reduce block partials "
             "across the grid row");
  const VertexId n_local = dg.num_local();

  RankResult r;
  r.triangles.assign(n_local, 0);
  r.lcc.assign(n_local, 0.0);

  std::optional<intersect::TieredIntersector> tiered;
  if (config.intersect_tier == intersect::Tier::Tiered)
    tiered.emplace(config.tier_policy, config.cost,
                   dg.partition.num_vertices());
  pipeline.run(
      lcc_kernel(ctx, config, r.triangles, tiered ? &*tiered : nullptr));

  for (VertexId v = 0; v < n_local; ++v)
    r.lcc[v] = graph::lcc_score(r.triangles[v], dg.local_degree(v));
  return r;
}

namespace {

RunResult run_engine(const CSRGraph& g, std::uint32_t ranks,
                     const EngineConfig& config, const rma::NetworkModel& net,
                     graph::PartitionKind partition_kind) {
  RunResult out;
  out.triangles.assign(g.num_vertices(), 0);
  out.lcc.assign(g.num_vertices(), 0.0);

  // Under Grid2D the pc ranks of a grid row produce block partials for the
  // SAME vertices, so they cannot scatter straight into the shared output
  // the way disjoint 1D owners do. Each rank accumulates into its own
  // partial vector; the driver reduces them after the SPMD region.
  const bool grid = partition_kind == graph::PartitionKind::Grid2D;
  std::vector<std::vector<std::uint64_t>> grid_partials(grid ? ranks : 0);

  static_cast<EdgeAnalyticStats&>(out) = run_edge_analytic(
      g, ranks, config, net, partition_kind,
      [&](rma::RankCtx& ctx, const DistGraph& dg, EdgePipeline& pipeline) {
        if (grid) {
          auto& tri = grid_partials[ctx.rank()];
          tri.assign(dg.num_local(), 0);
          std::optional<intersect::TieredIntersector> tiered;
          if (config.intersect_tier == intersect::Tier::Tiered)
            tiered.emplace(config.tier_policy, config.cost,
                           dg.partition.num_vertices());
          pipeline.run_segments(lcc_segment_kernel(
              ctx, config, tri, tiered ? &*tiered : nullptr));
          return;
        }
        const RankResult rr = compute_lcc_rank(ctx, dg, config, pipeline);
        // Scatter per-vertex results into the global arrays. Ranks own
        // disjoint vertex sets, so no synchronisation is needed.
        for (VertexId lv = 0; lv < dg.num_local(); ++lv) {
          const VertexId v = dg.partition.global_id(ctx.rank(), lv);
          out.triangles[v] = rr.triangles[lv];
          out.lcc[v] = rr.lcc[lv];
        }
      });

  if (grid) {
    // Reduce block partials across each grid row: every rank of row r holds
    // a partial t(v) for every vertex of row block r; their sum is the
    // whole-row count. LCC denominators come from the global graph — the
    // full degree, which no single segment store can see.
    const Partition part = graph::make_partition(g, partition_kind, ranks);
    for (std::uint32_t r = 0; r < ranks; ++r)
      for (VertexId lv = 0; lv < static_cast<VertexId>(grid_partials[r].size());
           ++lv)
        out.triangles[part.global_id(r, lv)] += grid_partials[r][lv];
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      out.lcc[v] = graph::lcc_score(out.triangles[v], g.degree(v));
  }

  std::uint64_t sum = 0;
  for (auto t : out.triangles) sum += t;
  if (config.upper_triangle_only) {
    // Each undirected triangle is counted once per vertex => /3.
    out.global_triangles =
        g.directedness() == Directedness::Undirected ? sum / 3 : sum;
  } else {
    // Each undirected triangle is counted twice per vertex => /6; for
    // directed graphs the edge-centric sum counts transitive triads once.
    out.global_triangles =
        g.directedness() == Directedness::Undirected ? sum / 6 : sum;
  }
  return out;
}

}  // namespace

RunResult run_distributed_lcc(const CSRGraph& g, std::uint32_t ranks,
                              const EngineConfig& config,
                              const rma::NetworkModel& net,
                              graph::PartitionKind partition) {
  ATLC_CHECK(!config.upper_triangle_only,
             "LCC needs full per-vertex counts; use run_distributed_tc for "
             "upper-triangle counting");
  ATLC_CHECK(!config.orient_dodg,
             "LCC needs full undirected neighborhoods; orient_dodg is a "
             "run_distributed_tc optimisation");
  return run_engine(g, ranks, config, net, partition);
}

RunResult run_distributed_tc_result(const CSRGraph& g, std::uint32_t ranks,
                                    EngineConfig config,
                                    const rma::NetworkModel& net,
                                    graph::PartitionKind partition) {
  if (config.orient_dodg && g.directedness() == Directedness::Undirected) {
    // DODG path: each triangle appears exactly once as a common
    // out-neighbor of its (deg, id)-least edge, so the engine runs over the
    // oriented graph with NO per-edge suffix trimming and the raw t(v) sum
    // IS the distinct-triangle count (run_engine's directed branch).
    // Orientation is preprocessing, priced like partitioning: outside the
    // ranks' virtual clocks (DESIGN.md §9).
    const CSRGraph oriented = graph::orient_dodg(g);
    config.upper_triangle_only = false;
    return run_engine(oriented, ranks, config, net, partition);
  }
  // Paper path: upper-triangle de-duplication only applies to undirected
  // graphs (Section II-C); directed transitive triads need the full scan.
  config.upper_triangle_only = g.directedness() == Directedness::Undirected;
  return run_engine(g, ranks, config, net, partition);
}

std::uint64_t run_distributed_tc(const CSRGraph& g, std::uint32_t ranks,
                                 EngineConfig config,
                                 const rma::NetworkModel& net,
                                 graph::PartitionKind partition) {
  return run_distributed_tc_result(g, ranks, std::move(config), net, partition)
      .global_triangles;
}

}  // namespace atlc::core
