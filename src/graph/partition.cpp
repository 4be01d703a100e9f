#include "atlc/graph/partition.hpp"

#include <cstdint>

#include "atlc/graph/csr.hpp"

namespace atlc::graph {

Partition Partition::degree_balanced(std::span<const std::uint64_t> weights,
                                     std::uint32_t ranks) {
  const auto n = static_cast<VertexId>(weights.size());
  Partition p(PartitionKind::Block1D, n, ranks);
  p.kind_ = PartitionKind::DegreeBalanced1D;
  p.cuts_.assign(static_cast<std::size_t>(ranks) + 1, n);

  std::uint64_t remaining = 0;
  for (const std::uint64_t w : weights) remaining += w;

  VertexId i = 0;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    p.cuts_[r] = i;
    const std::uint32_t ranks_left = ranks - r;
    if (remaining == 0) {
      // Zero-weight tail (or an all-zero sequence): nothing left to
      // balance, fall back to vertex-count balance over what remains.
      const VertexId take = (n - i + ranks_left - 1) / ranks_left;
      i += take;
      continue;
    }
    // Re-quota against what is left: ceil keeps every prefix of ranks at or
    // above its fair share, which is what front-loads the remainder and
    // makes all-equal weights reproduce the Block1D boundaries.
    const std::uint64_t quota = (remaining + ranks_left - 1) / ranks_left;
    std::uint64_t owned = 0;
    while (i < n && owned < quota) {
      owned += weights[i];
      ++i;
    }
    remaining -= owned;
  }
  p.cuts_[ranks] = n;
  return p;
}

Partition Partition::degree_balanced(std::span<const VertexId> degrees,
                                     std::uint32_t ranks) {
  std::vector<std::uint64_t> weights(degrees.begin(), degrees.end());
  return degree_balanced(std::span<const std::uint64_t>(weights), ranks);
}

Partition make_partition(const CSRGraph& g, PartitionKind kind,
                         std::uint32_t ranks) {
  if (kind != PartitionKind::DegreeBalanced1D)
    return Partition(kind, g.num_vertices(), ranks);
  // Weight vertex v by the modeled cost of its edge stream: each local edge
  // (v, j) contributes deg(v) + deg(j) — the linear-merge intersection
  // bound, which also tracks the fetch volume of adj(j). Balancing this
  // prefix sum balances both stream length and hub-row work; on an
  // all-equal degree sequence it degenerates to 2d^2 per vertex, i.e. the
  // plain |E|/p endpoint cut (== Block1D boundaries). DESIGN.md §8.
  std::vector<std::uint64_t> weights(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto dv = static_cast<std::uint64_t>(g.degree(v));
    std::uint64_t w = 0;
    for (const VertexId j : g.neighbors(v)) w += dv + g.degree(j);
    weights[v] = w;
  }
  return Partition::degree_balanced(weights, ranks);
}

const char* partition_kind_name(PartitionKind kind) {
  switch (kind) {
    case PartitionKind::Block1D:
      return "block1d";
    case PartitionKind::Cyclic1D:
      return "cyclic1d";
    case PartitionKind::DegreeBalanced1D:
      return "degree1d";
    case PartitionKind::Grid2D:
      return "grid2d";
  }
  return "unknown";
}

std::optional<PartitionKind> parse_partition_kind(std::string_view name) {
  if (name == "block") return PartitionKind::Block1D;
  if (name == "cyclic") return PartitionKind::Cyclic1D;
  for (const PartitionKind kind :
       {PartitionKind::Block1D, PartitionKind::Cyclic1D,
        PartitionKind::DegreeBalanced1D, PartitionKind::Grid2D})
    if (name == partition_kind_name(kind)) return kind;
  return std::nullopt;
}

}  // namespace atlc::graph
