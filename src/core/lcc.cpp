#include "atlc/core/lcc.hpp"

#include <span>
#include <vector>

#include "atlc/graph/dodg.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/intersect/tiered.hpp"
#include "atlc/util/check.hpp"

namespace atlc::core {

namespace {

/// The LCC/TC edge kernel (paper Algorithm 3 inner loop) over one pipeline
/// pass: for every streamed edge (v, j), intersect adj(v) with the fetched
/// adj(j) — restricted to common neighbors above j when
/// `upper_triangle_only` (paper Section II-C) — charge the modeled cost,
/// and accumulate t(v) into `triangles` (indexed by local vertex).
///
/// Grid2D ranks stream (edge, column block) items instead and accumulate
/// block partials |seg(v,b) ∩ seg(j,b)|; summed over blocks these reproduce
/// the whole-row count exactly (the blocks partition the neighbor id range,
/// and suffix_above distributes over that partition). Both segments may be
/// ring-slot-backed there, so they go through intersect_transient —
/// span-identity bitmap reuse would serve a stale bitmap once a slot is
/// recycled. On 1D partitions the local adj(v) is the stable row side.
void count_triangles(rma::RankCtx& ctx, const DistGraph& dg,
                     const EngineConfig& config, bool upper_triangle_only,
                     EdgePipeline& pipeline,
                     std::vector<std::uint64_t>& triangles) {
  intersect::Intersector isect(config.method, config.intersect_tier,
                               config.cost, dg.partition.num_vertices());
  const bool segmented = dg.partition.kind() == graph::PartitionKind::Grid2D;
  auto edge = [&](VertexId lv, VertexId j, std::span<const VertexId> lhs,
                  std::span<const VertexId> rhs) {
    if (upper_triangle_only) {
      lhs = intersect::suffix_above(lhs, j);
      rhs = intersect::suffix_above(rhs, j);
    }
    const auto out = segmented ? isect.intersect_transient(lhs, rhs)
                               : isect.intersect(lhs, rhs);
    if (ctx.tracer().enabled())
      ctx.tracer().instant(out.event, {"size", lhs.size() + rhs.size()});
    ctx.charge_compute(out.seconds);
    triangles[lv] += out.common;
  };
  if (segmented) {
    pipeline.run_segments([&](VertexId lv, VertexId j, std::uint32_t,
                              std::span<const VertexId> seg_v,
                              std::span<const VertexId> seg_j) {
      edge(lv, j, seg_v, seg_j);
    });
  } else {
    pipeline.run(edge);
  }
}

/// Shared driver of LCC and TC. Every rank counts into its own partial
/// vector and the driver reduces them after the SPMD region: under Grid2D
/// the pc ranks of a grid row produce block partials for the SAME vertices,
/// so they cannot scatter straight into the shared output (under 1D the
/// owners are disjoint and the reduction is a plain scatter). LCC
/// denominators come from the global graph — the full degree, which no
/// single segment store can see.
RunResult run_engine(const CSRGraph& g, std::uint32_t ranks,
                     const EngineConfig& config, const rma::NetworkModel& net,
                     graph::PartitionKind partition_kind,
                     bool upper_triangle_only) {
  RunResult out;
  std::vector<std::vector<std::uint64_t>> partials(ranks);
  static_cast<EdgeAnalyticStats&>(out) = run_edge_analytic(
      g, ranks, config, net, partition_kind,
      [&](rma::RankCtx& ctx, const DistGraph& dg, EdgePipeline& pipeline) {
        auto& tri = partials[ctx.rank()];
        tri.assign(dg.num_local(), 0);
        count_triangles(ctx, dg, config, upper_triangle_only, pipeline, tri);
      });

  const Partition part = graph::make_partition(g, partition_kind, ranks);
  out.triangles.assign(g.num_vertices(), 0);
  for (std::uint32_t r = 0; r < ranks; ++r)
    for (VertexId lv = 0; lv < static_cast<VertexId>(partials[r].size()); ++lv)
      out.triangles[part.global_id(r, lv)] += partials[r][lv];
  out.lcc.assign(g.num_vertices(), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    out.lcc[v] = graph::lcc_score(out.triangles[v], g.degree(v));

  std::uint64_t sum = 0;
  for (auto t : out.triangles) sum += t;
  if (upper_triangle_only) {
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
  count_triangles(ctx, dg, config, /*upper_triangle_only=*/false, pipeline,
                  r.triangles);
  for (VertexId v = 0; v < n_local; ++v)
    r.lcc[v] = graph::lcc_score(r.triangles[v], dg.local_degree(v));
  return r;
}

RunResult run_distributed_lcc(const CSRGraph& g, std::uint32_t ranks,
                              const EngineConfig& config,
                              const rma::NetworkModel& net,
                              graph::PartitionKind partition) {
  return run_engine(g, ranks, config, net, partition,
                    /*upper_triangle_only=*/false);
}

RunResult run_distributed_tc_result(const CSRGraph& g, std::uint32_t ranks,
                                    const EngineConfig& config,
                                    const rma::NetworkModel& net,
                                    graph::PartitionKind partition,
                                    bool orient_dodg) {
  if (orient_dodg && g.directedness() == Directedness::Undirected) {
    // DODG path: each triangle appears exactly once as a common
    // out-neighbor of its (deg, id)-least edge, so the engine runs over the
    // oriented graph with NO per-edge suffix trimming and the raw t(v) sum
    // IS the distinct-triangle count (run_engine's directed branch).
    // Orientation is preprocessing, priced like partitioning: outside the
    // ranks' virtual clocks (DESIGN.md §9).
    return run_engine(graph::orient_dodg(g), ranks, config, net, partition,
                      /*upper_triangle_only=*/false);
  }
  // Paper path: upper-triangle de-duplication only applies to undirected
  // graphs (Section II-C); directed transitive triads need the full scan.
  return run_engine(g, ranks, config, net, partition,
                    g.directedness() == Directedness::Undirected);
}

std::uint64_t run_distributed_tc(const CSRGraph& g, std::uint32_t ranks,
                                 const EngineConfig& config,
                                 const rma::NetworkModel& net,
                                 graph::PartitionKind partition,
                                 bool orient_dodg) {
  return run_distributed_tc_result(g, ranks, config, net, partition,
                                   orient_dodg)
      .global_triangles;
}

}  // namespace atlc::core
