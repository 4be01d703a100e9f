#include "atlc/core/lcc.hpp"

#include <span>
#include <vector>

#include "atlc/graph/reference.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/intersect/tiered.hpp"
#include "atlc/util/check.hpp"

namespace atlc::core {

namespace {

/// What count_triangles adds up per streamed edge (u, j), u the local row.
enum class Credit {
  /// The full |adj(u) ∩ adj(j)| at u: the edge-centric t(v) of LCC (and of
  /// directed TC) — on an undirected graph 2·t(v).
  Edge,
  /// The paper's TC de-duplication (Section II-C): only common neighbors
  /// above j count, so each triangle is counted once at each corner: t(v).
  UpperTriangle,
  /// DODG TC: each triangle is found once, at its (deg, id)-least arc u→j
  /// with common out-neighbor w; the arc credits u and j by |W| and every
  /// w in W by 1 — all three corners, so again t(v).
  ThreeCorner,
};

/// The LCC/TC edge kernel (paper Algorithm 3 inner loop) over one pipeline
/// pass: for every streamed edge (u, j), intersect adj(u) with the fetched
/// adj(j), charge the modeled cost, and add the `credit` up in `triangles`
/// — indexed by local vertex, except under ThreeCorner, where j and w are
/// any vertex and the vector spans every global id.
///
/// Grid2D ranks stream (edge, column block) items instead and accumulate
/// block partials |seg(u,b) ∩ seg(j,b)|; summed over blocks these reproduce
/// the whole-row credits exactly (the blocks partition the neighbor id
/// range, and suffix_above distributes over that partition). Both segments
/// may be ring-slot-backed there, so they go through intersect_transient —
/// span-identity bitmap reuse would serve a stale bitmap once a slot is
/// recycled. On 1D partitions the local adj(u) is the stable row side.
void count_triangles(rma::RankCtx& ctx, const DistGraph& dg,
                     const EngineConfig& config, Credit credit,
                     EdgePipeline& pipeline,
                     std::vector<std::uint64_t>& triangles) {
  intersect::Intersector isect(config.method, config.intersect_tier,
                               config.cost, dg.partition.num_vertices());
  const bool segmented = dg.partition.kind() == graph::PartitionKind::Grid2D;
  auto edge = [&](VertexId lv, VertexId j, std::span<const VertexId> lhs,
                  std::span<const VertexId> rhs) {
    if (credit == Credit::UpperTriangle) {
      lhs = intersect::suffix_above(lhs, j);
      rhs = intersect::suffix_above(rhs, j);
    }
    intersect::Intersector::Outcome out;
    if (credit == Credit::ThreeCorner) {
      const auto corner = [&](VertexId w) { ++triangles[w]; };
      out = segmented ? isect.intersect_transient(lhs, rhs, corner)
                      : isect.intersect(lhs, rhs, corner);
      triangles[dg.partition.global_id(ctx.rank(), lv)] += out.common;
      triangles[j] += out.common;
    } else {
      out = segmented ? isect.intersect_transient(lhs, rhs)
                      : isect.intersect(lhs, rhs);
      triangles[lv] += out.common;
    }
    if (ctx.tracer().enabled())
      ctx.tracer().instant(out.event, {"size", lhs.size() + rhs.size()});
    ctx.charge_compute(out.seconds);
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
/// and under ThreeCorner every rank credits vertices it does not own, so
/// neither can scatter straight into the shared output (under 1D Edge and
/// UpperTriangle credit the owners are disjoint and the reduction is a
/// plain scatter). LCC denominators come from the global undirected graph —
/// the full degree, which no single segment store or out-row can see.
RunResult run_engine(const CSRGraph& g, std::uint32_t ranks,
                     const EngineConfig& config, const rma::NetworkModel& net,
                     graph::PartitionKind partition_kind, Credit credit) {
  // A ThreeCorner rank credits vertices it does not own, so its partial
  // spans every global id.
  const bool dodg = credit == Credit::ThreeCorner;
  RunResult out;
  std::vector<std::vector<std::uint64_t>> partials(ranks);
  static_cast<EdgeAnalyticStats&>(out) = run_edge_analytic(
      g, ranks, config, net, partition_kind,
      [&](rma::RankCtx& ctx, const DistGraph& dg, EdgePipeline& pipeline) {
        auto& tri = partials[ctx.rank()];
        tri.assign(dodg ? g.num_vertices() : dg.num_local(), 0);
        count_triangles(ctx, dg, config, credit, pipeline, tri);
      },
      dodg);

  const Partition part = graph::make_partition(g, partition_kind, ranks);
  out.triangles.assign(g.num_vertices(), 0);
  for (std::uint32_t r = 0; r < ranks; ++r)
    for (VertexId i = 0; i < static_cast<VertexId>(partials[r].size()); ++i)
      out.triangles[dodg ? i : part.global_id(r, i)] += partials[r][i];

  // lcc_score takes the edge-centric count, which is 2·t(v) on undirected
  // graphs; the TC credits yield t(v) itself.
  const std::uint64_t to_edge_centric = credit == Credit::Edge ? 1 : 2;
  out.lcc.assign(g.num_vertices(), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    out.lcc[v] =
        graph::lcc_score(to_edge_centric * out.triangles[v], g.degree(v));

  std::uint64_t sum = 0;
  for (auto t : out.triangles) sum += t;
  // TC credits count each undirected triangle once per corner (/3); the
  // edge-centric sum counts it twice per corner (/6), and counts each
  // directed transitive triad once.
  if (credit != Credit::Edge)
    out.global_triangles = sum / 3;
  else
    out.global_triangles =
        g.directedness() == Directedness::Undirected ? sum / 6 : sum;
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
  count_triangles(ctx, dg, config, Credit::Edge, pipeline, r.triangles);
  for (VertexId v = 0; v < n_local; ++v)
    r.lcc[v] = graph::lcc_score(r.triangles[v], dg.local_degree(v));
  return r;
}

RunResult run_distributed_lcc(const CSRGraph& g, std::uint32_t ranks,
                              const EngineConfig& config,
                              const rma::NetworkModel& net,
                              graph::PartitionKind partition) {
  return run_engine(g, ranks, config, net, partition, Credit::Edge);
}

RunResult run_distributed_tc_result(const CSRGraph& g, std::uint32_t ranks,
                                    const EngineConfig& config,
                                    const rma::NetworkModel& net,
                                    graph::PartitionKind partition,
                                    bool orient_dodg) {
  // Directed transitive triads need the full scan; the de-duplicating
  // credits apply to undirected graphs only.
  if (g.directedness() == Directedness::Directed)
    return run_engine(g, ranks, config, net, partition, Credit::Edge);
  // The orientation is preprocessing, priced like partitioning: outside
  // the ranks' virtual clocks (DESIGN.md §9).
  return run_engine(g, ranks, config, net, partition,
                    orient_dodg ? Credit::ThreeCorner : Credit::UpperTriangle);
}

}  // namespace atlc::core
