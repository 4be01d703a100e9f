#pragma once

// The `atlc::stream` entry point: maintain exact global triangle counts
// and per-vertex LCC over batches of edge insertions/deletions against a
// distributed graph, incrementally — each batch costs O(|batch|)
// adjacency intersections through the cached EdgePipeline instead of a
// full O(|E|) recount. The rma windows are republished per mutating batch
// (refresh_window), and CLaMPI serves the new epoch while recycling stale
// entries (stale-hit-as-miss). Undirected graphs only. DESIGN.md §7.

#include <cstdint>
#include <span>
#include <vector>

#include "atlc/core/edge_pipeline.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/rma/network_model.hpp"
#include "atlc/rma/runtime.hpp"
#include "atlc/stream/update.hpp"

namespace atlc::stream {

struct StreamOptions {
  /// Engine configuration for the cold pass and every batch. Hub-adjacency
  /// replication (engine.hub_fraction > 0) is fully supported: replicas are
  /// built at the cold pass and maintained per batch by BatchApplier.
  core::EngineConfig engine{};
  rma::NetworkModel net{};
  /// Vertex distribution, any of the three kinds (docs/partitioning.md):
  /// Block1D (paper default, contiguous n/p blocks), Cyclic1D (owner =
  /// v mod p, balance-improving on skew), or DegreeBalanced1D (contiguous
  /// ranges cut by degree prefix sum, ~|E|/p edge endpoints per rank —
  /// built from the INITIAL graph's degrees; batches mutate rows but never
  /// re-cut the partition). Per-batch results are identical for all kinds.
  graph::PartitionKind partition = graph::PartitionKind::Block1D;
  /// Record full per-vertex triangle/LCC snapshots after every batch
  /// (tests compare each against a from-scratch reference recount). Costs
  /// one |V| copy per batch; leave off outside validation.
  bool record_snapshots = false;
};

/// Per-batch accounting, filled after the batch committed.
struct BatchOutcome {
  std::uint64_t raw_updates = 0;          ///< updates in the input batch
  std::uint64_t effective_insertions = 0; ///< net inserts that changed the graph
  std::uint64_t effective_deletions = 0;
  std::uint64_t rows_rebuilt = 0;         ///< CSR rows rewritten, all ranks
  std::int64_t triangles_delta = 0;       ///< ΔT in distinct triangles
  std::uint64_t global_triangles = 0;     ///< count after this batch
  double makespan = 0.0;                  ///< virtual seconds for this batch
  std::vector<std::uint64_t> triangles;   ///< snapshot (record_snapshots)
  std::vector<double> lcc;                ///< snapshot (record_snapshots)
};

/// Final state plus the whole-run record. Per-vertex arrays use the same
/// conventions as core::RunResult (edge-centric t(v); LCC per Eq. 2). The
/// inherited stats block covers every phase (cold count and all batches)
/// and is aggregated exactly as for the static analytics.
struct StreamResult : core::EdgeAnalyticStats {
  std::vector<std::uint64_t> triangles;
  std::vector<double> lcc;
  std::uint64_t global_triangles = 0;
  double initial_makespan = 0.0;  ///< virtual time of the cold full count
  double stream_makespan = 0.0;   ///< virtual time across all batches
  std::vector<BatchOutcome> batches;
};

/// Run the streaming engine: cold full LCC/TC count of `g`, then apply
/// each batch in order, maintaining counts incrementally. Undirected
/// input only. The cold count is one core::compute_lcc_rank pass, so its
/// intersector (and any Tiered row bitmap) is gone before the first batch
/// rebuilds rows.
[[nodiscard]] StreamResult run_streaming_lcc(
    const graph::CSRGraph& g, std::span<const Batch> batches,
    std::uint32_t ranks, const StreamOptions& options = {});

}  // namespace atlc::stream
