#include "atlc/core/similarity.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "atlc/intersect/intersect.hpp"
#include "atlc/intersect/tiered.hpp"
#include "atlc/util/check.hpp"

namespace atlc::core {

namespace {

/// Score of an edge from its common-neighbor count and the two degrees.
using CountScore = double (*)(std::uint64_t common, std::size_t deg_u,
                              std::size_t deg_v);

double jaccard_from_counts(std::uint64_t common, std::size_t deg_u,
                           std::size_t deg_v) {
  const std::uint64_t uni = deg_u + deg_v - common;
  return uni == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(uni);
}

double overlap_from_counts(std::uint64_t common, std::size_t deg_u,
                           std::size_t deg_v) {
  const std::size_t mn = std::min(deg_u, deg_v);
  return mn == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(mn);
}

/// 1/ln(deg) weight of a common neighbor; 0 for degree < 2 (see header).
double adamic_adar_weight(VertexId degree) {
  return degree < 2 ? 0.0 : 1.0 / std::log(static_cast<double>(degree));
}

/// Replicate the global out-degree vector on this rank by differencing
/// every peer's offsets window — the one-shot setup transfer Adamic–Adar
/// needs (deg(w) for arbitrary global w in the kernel). Stays within the
/// RMA channels the runtime exposes: local parts are read directly, remote
/// parts with one flushed bulk get per peer, priced by the network model.
std::vector<VertexId> replicate_degrees(rma::RankCtx& ctx,
                                        const DistGraph& dg) {
  const Partition& part = dg.partition;
  std::vector<VertexId> degree(part.num_vertices(), 0);
  std::vector<EdgeIndex> offsets;
  for (std::uint32_t r = 0; r < part.num_ranks(); ++r) {
    const VertexId n_r = part.part_size(r);
    std::span<const EdgeIndex> offs;
    if (r == ctx.rank()) {
      offs = dg.offsets;
    } else {
      offsets.resize(n_r + 1);
      ctx.flush(dg.w_offsets.get(r, 0, n_r + 1, offsets.data()));
      offs = offsets;
    }
    for (VertexId lv = 0; lv < n_r; ++lv)
      degree[part.global_id(r, lv)] =
          static_cast<VertexId>(offs[lv + 1] - offs[lv]);
  }
  return degree;
}

/// The one driver of every per-edge score analytic, over run_edge_analytic:
/// it owns the edge-slot mapping and the score-vector layout, so the slot
/// arithmetic exists in exactly one place. `setup(ctx, dg)` runs once per
/// rank before the pipeline and its result is handed to every kernel call;
/// `score_edge(ctx, state, adj_v, adj_j)` returns the score of one edge.
template <typename Setup, typename ScoreEdge>
SimilarityResult run_edge_scores(const CSRGraph& g, std::uint32_t ranks,
                                 const EngineConfig& config,
                                 const rma::NetworkModel& net,
                                 graph::PartitionKind partition_kind,
                                 Setup&& setup, ScoreEdge&& score_edge) {
  ATLC_CHECK(partition_kind != graph::PartitionKind::Grid2D,
             "per-edge score analytics are 1D-only: their kernels need the "
             "whole adjacency row per edge (denominators use full degrees), "
             "not the per-block segments Grid2D streams");
  SimilarityResult out;
  out.score.assign(g.num_edges(), 0.0);

  static_cast<EdgeAnalyticStats&>(out) = run_edge_analytic(
      g, ranks, config, net, partition_kind,
      [&](rma::RankCtx& ctx, const DistGraph& dg, EdgePipeline& pipeline) {
        auto state = setup(ctx, dg);
        // Global slot of each local edge: adjacency slots are laid out per
        // owning vertex, so local slot ei of local vertex lv maps to
        // offsets(global v) + (ei - local offsets(lv)).
        EdgeIndex ei = 0;
        pipeline.run([&](VertexId lv, VertexId, std::span<const VertexId> adj_v,
                         std::span<const VertexId> adj_j) {
          const VertexId v_global = dg.partition.global_id(ctx.rank(), lv);
          const EdgeIndex global_slot =
              g.offsets()[v_global] + (ei - dg.offsets[lv]);
          out.score[global_slot] = score_edge(ctx, state, adj_v, adj_j);
          ++ei;
        });
      });
  return out;
}

/// run_edge_scores for the count-normalised measures (Jaccard, overlap):
/// each rank's setup is its Intersector for this pass; each edge counts
/// |adj(u) ∩ adj(v)| with it (the local adj(u) is the stable row side),
/// charges the priced cost, and normalises by the two degrees.
SimilarityResult run_count_scores(const CSRGraph& g, std::uint32_t ranks,
                                  const EngineConfig& config,
                                  const rma::NetworkModel& net,
                                  graph::PartitionKind partition,
                                  CountScore normalise) {
  return run_edge_scores(
      g, ranks, config, net, partition,
      [&config](rma::RankCtx&, const DistGraph& dg) {
        return intersect::Intersector(config.method, config.intersect_tier,
                                      config.cost,
                                      dg.partition.num_vertices());
      },
      [normalise](rma::RankCtx& ctx, intersect::Intersector& isect,
                  std::span<const VertexId> adj_v,
                  std::span<const VertexId> adj_j) {
        const auto out = isect.intersect(adj_v, adj_j);
        ctx.charge_compute(out.seconds);
        return normalise(out.common, adj_v.size(), adj_j.size());
      });
}

/// Single-node reference of a count-normalised measure.
std::vector<double> reference_count_scores(const CSRGraph& g,
                                           CountScore normalise) {
  std::vector<double> out(g.num_edges(), 0.0);
  std::size_t k = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto adj_u = g.neighbors(u);
    for (VertexId v : adj_u) {
      const auto adj_v = g.neighbors(v);
      out[k++] = normalise(intersect::count_hybrid(adj_u, adj_v),
                           adj_u.size(), adj_v.size());
    }
  }
  return out;
}

}  // namespace

SimilarityResult run_distributed_jaccard(const CSRGraph& g,
                                         std::uint32_t ranks,
                                         const EngineConfig& config,
                                         const rma::NetworkModel& net,
                                         graph::PartitionKind partition) {
  return run_count_scores(g, ranks, config, net, partition,
                          jaccard_from_counts);
}

SimilarityResult run_distributed_overlap(const CSRGraph& g,
                                         std::uint32_t ranks,
                                         const EngineConfig& config,
                                         const rma::NetworkModel& net,
                                         graph::PartitionKind partition) {
  return run_count_scores(g, ranks, config, net, partition,
                          overlap_from_counts);
}

SimilarityResult run_distributed_adamic_adar(const CSRGraph& g,
                                             std::uint32_t ranks,
                                             const EngineConfig& config,
                                             const rma::NetworkModel& net,
                                             graph::PartitionKind partition) {
  return run_edge_scores(
      g, ranks, config, net, partition,
      [](rma::RankCtx& ctx, const DistGraph& dg) {
        return replicate_degrees(ctx, dg);
      },
      [&config](rma::RankCtx& ctx, const std::vector<VertexId>& degree,
                std::span<const VertexId> adj_v,
                std::span<const VertexId> adj_j) {
        double aa = 0.0;
        intersect::for_each_common(adj_v, adj_j, [&](VertexId w) {
          aa += adamic_adar_weight(degree[w]);
        });
        ctx.charge_compute(
            config.cost.seconds_enumerate(adj_v.size(), adj_j.size()));
        return aa;
      });
}

std::vector<double> reference_jaccard(const CSRGraph& g) {
  return reference_count_scores(g, jaccard_from_counts);
}

std::vector<double> reference_overlap(const CSRGraph& g) {
  return reference_count_scores(g, overlap_from_counts);
}

std::vector<double> reference_adamic_adar(const CSRGraph& g) {
  std::vector<double> out(g.num_edges(), 0.0);
  std::size_t k = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const auto adj_u = g.neighbors(u);
    for (VertexId v : adj_u) {
      double aa = 0.0;
      intersect::for_each_common(adj_u, g.neighbors(v), [&](VertexId w) {
        aa += adamic_adar_weight(g.degree(w));
      });
      out[k++] = aa;
    }
  }
  return out;
}

}  // namespace atlc::core
