#pragma once

#include <cstdint>
#include <vector>

#include "atlc/clampi/cache.hpp"
#include "atlc/core/edge_pipeline.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/rma/network_model.hpp"

namespace atlc::core {

/// Per-rank outcome of the compute phase (local vertices only; the
/// pipeline counters are harvested by the caller that owns the pipeline).
struct RankResult {
  std::vector<std::uint64_t> triangles;  ///< edge-centric t(v), local vertices
  std::vector<double> lcc;               ///< LCC scores, local vertices
};

/// Paper Algorithm 3 body for one rank, as an EdgePipeline kernel: count
/// the full edge-centric t(v) for every locally owned vertex (no
/// upper-triangle trimming), reading remote adjacency lists through the
/// two-get RMA protocol (optionally cached) over the caller's pipeline, and
/// derive LCC scores. 1D partitions only. One pass: the kernel's
/// intersector lives for this call, so callers may rebuild rows in between.
[[nodiscard]] RankResult compute_lcc_rank(rma::RankCtx& ctx,
                                          const DistGraph& dg,
                                          const EngineConfig& config,
                                          EdgePipeline& pipeline);

/// Aggregated outcome of a full distributed run: the per-analytic outputs
/// plus the stats block every edge analytic shares (edge_pipeline.hpp).
/// On undirected graphs, with t(v) the number of distinct triangles at v:
///   - run_distributed_lcc: triangles[v] = 2·t(v), the edge-centric count
///     (paper Section II-C; graph::reference_lcc's convention);
///   - run_distributed_tc_result: triangles[v] = t(v), on either path.
/// Either way lcc[v] is the paper's Eq. (2) score over the undirected
/// degree, bit-identical to graph::reference_lcc.
struct RunResult : EdgeAnalyticStats {
  std::vector<std::uint64_t> triangles;  ///< per global vertex, see above
  std::vector<double> lcc;               ///< per global vertex
  std::uint64_t global_triangles = 0;    ///< distinct triangles (undirected)
};

/// Convenience driver: partition `g` over `ranks` simulated ranks, run the
/// engine on each, and gather per-vertex results. The entry point the
/// examples and benches use.
[[nodiscard]] RunResult run_distributed_lcc(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D);

/// Global and per-vertex triangle counts via the same machinery. For
/// undirected graphs `global_triangles` is the number of distinct
/// triangles and triangles[v] = t(v), under two de-duplication paths:
///   - `orient_dodg` (the default): the ranks serve the degree-ordered
///     orientation of `g` (graph::orient_dodg's rule, applied per row at
///     graph build), which enumerates each triangle exactly once — at its
///     least arc, with no per-edge trimming — and caps every row at
///     O(sqrt(m)). Each arc u→j credits u and j by its common out-neighbor
///     count and every common out-neighbor by 1 (DESIGN.md §9).
///   - otherwise the paper's upper-triangle floor trick (Section II-C) over
///     full rows: what the paper runs.
/// The orientation is a TC-only choice — LCC and the similarity analytics
/// need full undirected neighborhoods — so it is an argument here, not an
/// EngineConfig field. Directed graphs are never oriented: triangles[v]
/// counts the transitive triads at v and `global_triangles` is their sum.
[[nodiscard]] RunResult run_distributed_tc_result(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D,
    bool orient_dodg = true);

}  // namespace atlc::core
