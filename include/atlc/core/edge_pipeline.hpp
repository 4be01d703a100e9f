#pragma once

// The generic depth-k asynchronous edge-pipeline engine.
//
// The paper's core contribution is an edge-centric compute loop that fetches
// the remote adjacency of edge e_{i+1} while intersecting e_i (Section III-A
// double buffering). EdgePipeline factors that loop out of the individual
// analytics: it walks the rank's flattened edge stream, keeps up to k-1
// adjacency transfers in flight over a ring of k fetch buffers
// (EngineConfig::pipeline_depth), and hands each edge to an arbitrary
// kernel. LCC, global TC and the per-edge similarity measures are thin
// kernels over this engine; `run_edge_analytic` deduplicates the
// partition/SPMD-launch/stats-aggregation boilerplate around it.
// DESIGN.md §6 documents the kernel concept, the ring lifetime rules, and
// how depth interacts with the NIC-serialisation model.

#include <concepts>
#include <span>
#include <utility>
#include <vector>

#include "atlc/core/dist_graph.hpp"
#include "atlc/core/engine_config.hpp"
#include "atlc/core/fetcher.hpp"
#include "atlc/graph/hub_replica.hpp"
#include "atlc/util/check.hpp"

namespace atlc::core {

/// An edge kernel: invoked once per local edge, in edge-stream order, as
/// kernel(lv, j, adj_v, adj_j) where `lv` is the local index of the owning
/// vertex v, `j` the (global) neighbor, `adj_v` v's local adjacency and
/// `adj_j` the (possibly remotely fetched) adjacency of j. `adj_j` is only
/// valid during the call — the engine reuses its ring slot k fetches later.
/// Kernels charge their own compute time (ctx.charge_compute) so the
/// engine stays analytic-agnostic about cost.
template <typename K>
concept EdgeKernel =
    std::invocable<K&, VertexId, VertexId, std::span<const VertexId>,
                   std::span<const VertexId>>;

/// A segment kernel (2D partitions): invoked once per (local edge, column
/// block) as kernel(lv, j, block, seg_v, seg_j), where `seg_v` / `seg_j`
/// are the column-block-`block` restrictions of adj(v) / adj(j). Summing a
/// pair intersection over all blocks reproduces the whole-row count:
/// |adj(v) ∩ adj(j)| = Σ_b |seg(v,b) ∩ seg(j,b)|, because the blocks
/// partition the neighbor id range. BOTH spans may alias fetch-ring slots
/// (v's segments for other column blocks live on sibling ranks), so
/// neither is valid beyond the call.
template <typename K>
concept SegmentKernel =
    std::invocable<K&, VertexId, VertexId, std::uint32_t,
                   std::span<const VertexId>, std::span<const VertexId>>;

/// Per-rank counters harvested from a pipeline after run().
struct PipelineRankStats {
  std::uint64_t edges_processed = 0;
  std::uint64_t remote_edges = 0;  ///< edges whose neighbor list was remote
  /// Rank virtual clock when its compute phase ended, BEFORE the teardown
  /// barrier equalised the clocks (run_edge_analytic fills it). This is the
  /// number load-imbalance metrics must use: Runtime::Result::clocks are
  /// post-barrier and therefore identical across ranks.
  double busy_seconds = 0.0;
  clampi::CacheStats offsets_cache;  ///< zeroed when caching is off
  clampi::CacheStats adj_cache;
  std::vector<std::uint64_t> remote_reads;  ///< per global vertex, optional
  std::vector<clampi::EntryInfo> adj_cache_entries;  ///< optional snapshot
};

/// Statistics every edge analytic reports identically: the SPMD run record
/// plus pipeline/cache counters aggregated over all ranks. Analytic results
/// (RunResult, SimilarityResult, stream::StreamResult, QueryStats) derive
/// from this, so a stats field present for one analytic is present — and
/// filled — for all.
struct EdgeAnalyticStats {
  rma::Runtime::Result run;  ///< per-rank comm stats + virtual clocks
  clampi::CacheStats offsets_cache_total;
  clampi::CacheStats adj_cache_total;
  /// Per-rank cache counters, in rank order (the *_total fields above are
  /// their field-wise sums — tests audit this invariant so a counter added
  /// to CacheStats cannot silently drop out of the aggregation).
  std::vector<clampi::CacheStats> offsets_cache_ranks;
  std::vector<clampi::CacheStats> adj_cache_ranks;
  std::uint64_t edges_processed = 0;
  std::uint64_t remote_edges = 0;  ///< edges whose neighbor list was remote
  std::vector<double> busy_clocks;  ///< per-rank pre-barrier virtual clocks
  std::vector<std::uint64_t> remote_reads;  ///< per global vertex, optional
  std::vector<clampi::EntryInfo> adj_cache_entries;  ///< all ranks, optional

  /// Fraction of processed edges requiring a remote adjacency fetch
  /// (paper Section IV-D2: 66% -> 98% for R-MAT S21 EF16, p=4 -> 64).
  /// Under Grid2D, remote_edges counts remote *segment* fetches (up to 2
  /// per (edge, block) item) while edges_processed still counts each local
  /// edge once, so the "fraction" can exceed 1 — it is then the average
  /// number of remote segment fetches per edge.
  [[nodiscard]] double remote_edge_fraction() const {
    return edges_processed
               ? static_cast<double>(remote_edges) /
                     static_cast<double>(edges_processed)
               : 0.0;
  }

  /// Load imbalance of the compute phase: max over mean of the per-rank
  /// pre-barrier clocks (1.0 = perfectly balanced; the D7 and `skew`
  /// scenarios report it). 1.0 when clocks were not recorded.
  [[nodiscard]] double imbalance() const;

  /// Fold one rank's counters in (driver aggregation; ranks in order).
  void absorb(PipelineRankStats&& rank);
};

/// Depth-k prefetch ring over one rank's flattened edge stream.
///
/// run() visits every local edge e_0..e_{m-1} in order. With effective
/// depth k (EngineConfig::pipeline_depth), the adjacency fetch
/// for edge e_{i+k-1} is issued before the kernel runs on e_i, so up to
/// k-1 transfers ride under each intersection in virtual time. k=2
/// reproduces the paper's double buffering exactly (same begin/finish/
/// compute order, hence bit-identical virtual makespans); k=1 is the
/// fully synchronous loop.
class EdgePipeline {
 public:
  EdgePipeline(rma::RankCtx& ctx, const DistGraph& dg,
               const EngineConfig& config)
      : dg_(&dg),
        config_(&config),
        rank_(ctx.rank()),
        depth_(config.pipeline_depth),
        fetcher_(ctx, dg, config) {}

  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] AdjacencyFetcher& fetcher() { return fetcher_; }

  /// Drive `kernel` over every local edge with depth-k prefetching.
  template <EdgeKernel K>
  void run(K&& kernel) {
    run_stream(
        static_cast<EdgeIndex>(dg_->adjacencies.size()),
        [this](EdgeIndex i) { return dg_->adjacencies[i]; },
        [this, lv = VertexId{0}](EdgeIndex ei) mutable {
          // Called once per ei in ascending order, so the owning-vertex
          // walk stays the original O(m + n) incremental scan.
          while (dg_->offsets[lv + 1] <= ei) ++lv;
          return lv;
        },
        kernel);
  }

  /// Drive `kernel` over an explicit edge list instead of the full local
  /// stream, with the same depth-k prefetch ring. Each entry is (lv, j):
  /// the LOCAL index of the owning vertex and the GLOBAL neighbor whose
  /// adjacency is fetched. The stream engine uses this to enumerate
  /// N(u) ∩ N(v) for a batch's update edges only, instead of recounting
  /// every local edge.
  template <EdgeKernel K>
  void run_over(std::span<const std::pair<VertexId, VertexId>> edges,
                K&& kernel) {
    run_stream(
        static_cast<EdgeIndex>(edges.size()),
        [edges](EdgeIndex i) { return edges[i].second; },
        [edges](EdgeIndex i) { return edges[i].first; }, kernel);
  }

  /// Drive a SegmentKernel over every (local edge, column block) item with
  /// the same depth-k prefetch ring as run(). The rank's local CSR is its
  /// segment store (each row slot holds only the rank's column-block slice),
  /// so the item space is the local segment-edge stream × col_blocks():
  /// item t = (edge t / B, block t % B). Each item issues up to TWO segment
  /// fetches — seg(v, b) lives on a sibling rank of this grid row unless
  /// b is this rank's own column block — which is why the fetcher doubles
  /// its ring under 2D partitions (2·depth live tokens at lookahead).
  /// edges_processed still counts each local edge once (at its block-0
  /// item); remote segment fetches land in remote_edges via the fetcher.
  template <SegmentKernel K>
  void run_segments(K&& kernel) {
    const auto& part = dg_->partition;
    const auto nb = static_cast<std::uint64_t>(part.col_blocks());
    const auto m = static_cast<std::uint64_t>(dg_->adjacencies.size());
    const std::uint64_t total = m * nb;

    // ei -> owning local vertex, precomputed: the prefetch lookahead
    // random-accesses the stream, so the O(m + n) incremental walk run()
    // uses cannot serve it.
    std::vector<VertexId> lv_of(m);
    {
      VertexId lv = 0;
      for (std::uint64_t ei = 0; ei < m; ++ei) {
        while (dg_->offsets[lv + 1] <= ei) ++lv;
        lv_of[ei] = static_cast<VertexId>(lv);
      }
    }

    struct SegPair {
      AdjacencyFetcher::Token v, j;
    };
    auto issue = [&](std::uint64_t t) {
      const auto ei = static_cast<std::size_t>(t / nb);
      const auto b = static_cast<std::uint32_t>(t % nb);
      const VertexId v = part.global_id(rank_, lv_of[ei]);
      SegPair p;
      p.v = fetcher_.begin(v, b);
      p.j = fetcher_.begin(dg_->adjacencies[ei], b);
      return p;
    };

    const auto lookahead = static_cast<std::uint64_t>(depth_) - 1;
    std::vector<SegPair> ring(std::max<std::uint64_t>(lookahead, 1));
    for (std::uint64_t p = 0; p < std::min(lookahead, total); ++p)
      ring[p % lookahead] = issue(p);

    for (std::uint64_t t = 0; t < total; ++t) {
      const auto ei = static_cast<std::size_t>(t / nb);
      const auto b = static_cast<std::uint32_t>(t % nb);
      const SegPair cur = lookahead > 0 ? ring[t % lookahead] : issue(t);
      const std::span<const VertexId> seg_v = fetcher_.finish(cur.v);
      const std::span<const VertexId> seg_j = fetcher_.finish(cur.j);
      if (lookahead > 0 && t + lookahead < total)
        ring[t % lookahead] = issue(t + lookahead);
      kernel(lv_of[ei], dg_->adjacencies[ei], b, seg_v, seg_j);
      if (b == 0) ++edges_run_;
    }
  }

  /// Snapshot this rank's pipeline counters (callable any time; counters
  /// are monotonic).
  [[nodiscard]] PipelineRankStats harvest();

 private:
  /// The one prefetch loop both entry points share. `target(i)` is the
  /// global vertex whose adjacency edge i fetches (pure; called for
  /// prefetch lookahead too); `lv_of(i)` is the local owner index (called
  /// exactly once per i, in ascending order, at kernel time).
  template <typename TargetFn, typename LvFn, EdgeKernel K>
  void run_stream(EdgeIndex m, TargetFn&& target, LvFn&& lv_of, K&& kernel) {
    const auto lookahead = static_cast<EdgeIndex>(depth_) - 1;

    // Tokens are issued and retired strictly FIFO, so the in-flight window
    // [e_i, e_{i+lookahead}) lives in a ring indexed by edge number: the
    // prologue issues e_0..e_{lookahead-1}, then iteration i retires e_i
    // and issues e_{i+lookahead} into the slot just vacated.
    std::vector<AdjacencyFetcher::Token> ring(
        std::max<EdgeIndex>(lookahead, 1));
    for (EdgeIndex p = 0; p < std::min(lookahead, m); ++p)
      ring[p % lookahead] = fetcher_.begin(target(p));

    for (EdgeIndex ei = 0; ei < m; ++ei) {
      const VertexId lv = lv_of(ei);
      const VertexId j = target(ei);
      const AdjacencyFetcher::Token t =
          lookahead > 0 ? ring[ei % lookahead] : fetcher_.begin(j);
      const std::span<const VertexId> adj_j = fetcher_.finish(t);
      if (lookahead > 0 && ei + lookahead < m)
        ring[ei % lookahead] = fetcher_.begin(target(ei + lookahead));
      kernel(lv, j, dg_->local_neighbors(lv), adj_j);
      ++edges_run_;
    }
  }

  const DistGraph* dg_;
  const EngineConfig* config_;
  std::uint32_t rank_;  ///< this rank's id (global_id needs it)
  std::size_t depth_;
  std::uint64_t edges_run_ = 0;  ///< kernel invocations across run() calls
  AdjacencyFetcher fetcher_;
};

/// A rank body for run_edge_analytic: runs the analytic's kernel(s) through
/// the pipeline and scatters this rank's outputs (ranks own disjoint output
/// slots, so direct writes into shared result arrays need no locks).
template <typename B>
concept EdgeAnalyticBody =
    std::invocable<B&, rma::RankCtx&, const DistGraph&, EdgePipeline&>;

/// The one driver every edge analytic shares: partition `g` over `ranks`
/// simulated ranks, launch the SPMD region, build the rank-local graph and
/// its pipeline, run `body`, and aggregate the per-rank pipeline counters
/// identically for every analytic (this symmetry is load-bearing: Jaccard
/// historically dropped offsets-cache stats and remote-read tracking).
template <EdgeAnalyticBody Body>
[[nodiscard]] EdgeAnalyticStats run_edge_analytic(
    const CSRGraph& g, std::uint32_t ranks, const EngineConfig& config,
    const rma::NetworkModel& net, graph::PartitionKind partition_kind,
    Body&& body) {
  const Partition partition = graph::make_partition(g, partition_kind, ranks);
  // One prototype, copied per rank by build_dist_graph (which also prices
  // the replication). Empty — and free — at the default hub_fraction = 0.
  const graph::HubReplica hub_replica =
      graph::HubReplica::build(g, config.hub_fraction);

  EdgeAnalyticStats out;
  if (config.track_remote_reads)
    out.remote_reads.assign(g.num_vertices(), 0);

  std::vector<PipelineRankStats> rank_stats(ranks);

  rma::Runtime::Options opts;
  opts.ranks = ranks;
  opts.net = net;
  opts.trace = config.trace;
  out.run = rma::Runtime::run(opts, [&](rma::RankCtx& ctx) {
    ctx.tracer().begin("build_graph");
    const DistGraph dg =
        build_dist_graph(ctx, g, partition, &hub_replica, config.slice_source);
    EdgePipeline pipeline(ctx, dg, config);
    ctx.tracer().end("build_graph");
    ctx.tracer().begin("pipeline");
    body(ctx, dg, pipeline);
    ctx.tracer().end("pipeline");
    rank_stats[ctx.rank()] = pipeline.harvest();
    rank_stats[ctx.rank()].busy_seconds = ctx.now();
    ctx.barrier();  // end-of-epoch synchronisation (teardown only)
  });

  for (auto& rs : rank_stats) out.absorb(std::move(rs));
  return out;
}

}  // namespace atlc::core
