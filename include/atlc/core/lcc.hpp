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
struct RunResult : EdgeAnalyticStats {
  std::vector<std::uint64_t> triangles;  ///< per global vertex
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

/// Global triangle count via the same machinery. For undirected graphs
/// returns the number of distinct triangles. Two de-duplication paths:
/// the paper's upper-triangle floor trick (default), or — with
/// `orient_dodg` — a degree-ordered orientation pass (graph::orient_dodg)
/// that enumerates each triangle exactly once with no per-edge trimming
/// and caps every row at O(sqrt(m)) (DESIGN.md §9). The orientation is a
/// TC-only choice — LCC and the similarity analytics need full undirected
/// neighborhoods — so it is an argument here, not an EngineConfig field.
[[nodiscard]] std::uint64_t run_distributed_tc(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D,
    bool orient_dodg = false);

/// Full-record variant of run_distributed_tc: same counting paths, but
/// returns the whole RunResult (makespan, comm/cache stats, per-vertex
/// counts) — the `dodg` bench scenario compares the paths on it. Note that
/// on the DODG path `triangles[v]` is the count of triangles whose
/// (deg, id)-least edge starts at v, NOT the edge-centric t(v);
/// `global_triangles` is exact either way.
[[nodiscard]] RunResult run_distributed_tc_result(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config = {},
    const rma::NetworkModel& net = {},
    graph::PartitionKind partition = graph::PartitionKind::Block1D,
    bool orient_dodg = false);

}  // namespace atlc::core
