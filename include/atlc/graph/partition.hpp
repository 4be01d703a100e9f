#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "atlc/graph/types.hpp"
#include "atlc/util/check.hpp"

namespace atlc::graph {

class CSRGraph;

/// Partitioning scheme for distributing vertices over ranks.
enum class PartitionKind : std::uint8_t {
  /// Paper Section III-A: contiguous blocks of n/p vertices per rank
  /// (V_k = (k-1)n/p .. kn/p]). Can be imbalanced on skewed graphs.
  Block1D,
  /// Cyclic distribution [Lumsdaine et al., HPEC'20]: owner = v mod p.
  /// Listed by the paper as the balance-improving alternative; implemented
  /// for the partitioning ablation.
  Cyclic1D,
  /// Skew-aware contiguous ranges cut by a degree prefix sum, so each rank
  /// owns an ~equal share of degree-weighted edge endpoints instead of
  /// ~|V|/p vertices. make_partition() weights every local edge (v, j) by
  /// deg(v) + deg(j) — the linear-merge intersection cost the engine
  /// charges — which balances both the rank's edge-stream length and the
  /// hub-row work that Block1D piles onto whichever rank owns the hubs.
  /// Requires the degree sequence at construction: use
  /// Partition::degree_balanced() or make_partition(). With an all-equal
  /// degree sequence the cuts coincide with Block1D exactly. DESIGN.md §8,
  /// docs/partitioning.md.
  DegreeBalanced1D,
  /// ROADMAP item 2 (Tom & Karypis, "A 2D Parallel Triangle Counting
  /// Algorithm"): ranks own *edge blocks* of a pr×pc grid over the vertex
  /// range instead of whole adjacency rows. Rank (r, c) — linearised as
  /// r*pc + c — stores, for every vertex in row block r, only the segment
  /// of its adjacency row whose neighbor ids fall in column block c. Both
  /// axes are cut with the Block1D closed form (front-loaded remainder).
  /// pr is the largest divisor of p with pr <= floor(sqrt(p)), pc = p/pr,
  /// so p = 8 -> 2x4, p = 12 -> 3x4, and prime p degrades to 1xp. The
  /// *home* rank of a vertex (owner()) is the diagonal-ish rank
  /// (row_block(v), col_block(v)) — the unique rank used for per-vertex
  /// bookkeeping; segment fetches resolve owners per (vertex, column
  /// block) via segment_owner(). DESIGN.md §10, docs/partitioning.md.
  Grid2D,
};

/// Maps global vertex ids to (rank, local index) and back. All methods are
/// branch-cheap inline functions: the distributed inner loop calls owner()
/// per edge endpoint. (DegreeBalanced1D pays one O(log p) binary search
/// over the p+1 cut points instead of closed-form arithmetic.)
class Partition {
 public:
  /// Closed-form kinds only; DegreeBalanced1D needs the degree sequence —
  /// construct it with degree_balanced() or make_partition().
  Partition(PartitionKind kind, VertexId num_vertices, std::uint32_t ranks)
      : kind_(kind), n_(num_vertices), p_(ranks) {
    ATLC_CHECK(ranks > 0, "partition needs >= 1 rank");
    ATLC_CHECK(kind != PartitionKind::DegreeBalanced1D,
               "DegreeBalanced1D needs degrees: use Partition::"
               "degree_balanced() or graph::make_partition()");
    base_ = n_ / p_;
    extra_ = n_ % p_;  // first `extra_` ranks own base_+1 vertices
    if (kind == PartitionKind::Grid2D) {
      // Largest divisor of p not exceeding floor(sqrt(p)) keeps the grid as
      // square as p allows while using every rank (prime p -> 1 x p).
      grid_rows_ = 1;
      for (std::uint32_t d = 1; d * d <= p_; ++d)
        if (p_ % d == 0) grid_rows_ = d;
      grid_cols_ = p_ / grid_rows_;
    }
  }

  /// DegreeBalanced1D factory: cut [0, n) into `ranks` contiguous ranges by
  /// greedy prefix sum over per-vertex weights — rank k takes vertices
  /// until its weight reaches ceil(remaining_weight / remaining_ranks).
  /// The greedy re-quota front-loads the remainder the same way Block1D
  /// does, so an all-equal weight sequence reproduces the Block1D
  /// boundaries exactly (and an all-zero tail degrades to vertex-count
  /// balance). Pass raw degrees for plain |E|/p endpoint balance, or the
  /// deg(v)+deg(j) edge weights make_partition() uses for work balance.
  [[nodiscard]] static Partition degree_balanced(
      std::span<const std::uint64_t> weights, std::uint32_t ranks);
  /// Convenience overload for a plain degree sequence.
  [[nodiscard]] static Partition degree_balanced(
      std::span<const VertexId> degrees, std::uint32_t ranks);

  [[nodiscard]] PartitionKind kind() const { return kind_; }
  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] std::uint32_t num_ranks() const { return p_; }

  /// Grid shape (1x1 for every 1D kind, pr x pc for Grid2D).
  [[nodiscard]] std::uint32_t grid_rows() const { return grid_rows_; }
  [[nodiscard]] std::uint32_t grid_cols() const { return grid_cols_; }
  /// Grid coordinates of a linearised rank id (rank = row * pc + col).
  [[nodiscard]] std::uint32_t grid_row(std::uint32_t rank) const {
    return rank / grid_cols_;
  }
  [[nodiscard]] std::uint32_t grid_col(std::uint32_t rank) const {
    return rank % grid_cols_;
  }

  /// Number of column blocks each adjacency row is split into. 1 for every
  /// 1D kind — the seam callers use to treat a whole row as the single
  /// segment and keep the 1D fast paths bit-identical.
  [[nodiscard]] std::uint32_t col_blocks() const {
    return kind_ == PartitionKind::Grid2D ? grid_cols_ : 1;
  }

  /// Column block containing global vertex id v (always 0 for 1D kinds).
  [[nodiscard]] std::uint32_t col_block_of(VertexId v) const {
    ATLC_DCHECK(v < n_, "vertex out of range");
    if (kind_ != PartitionKind::Grid2D) return 0;
    return axis_block(n_, grid_cols_, v);
  }

  /// Half-open global-id range [first, last) of column block b. For 1D
  /// kinds block 0 covers the whole vertex range.
  [[nodiscard]] std::pair<VertexId, VertexId> col_block_range(
      std::uint32_t b) const {
    if (kind_ != PartitionKind::Grid2D) {
      ATLC_DCHECK(b == 0, "1D partitions have a single column block");
      return {0, n_};
    }
    ATLC_DCHECK(b < grid_cols_, "column block out of range");
    return {axis_begin(n_, grid_cols_, b), axis_begin(n_, grid_cols_, b + 1)};
  }

  /// Rank storing the column-block-b segment of v's adjacency row. For 1D
  /// kinds (b == 0) this is owner(v): whole rows live on the vertex owner.
  [[nodiscard]] std::uint32_t segment_owner(VertexId v,
                                            std::uint32_t b) const {
    if (kind_ != PartitionKind::Grid2D) {
      ATLC_DCHECK(b == 0, "1D partitions have a single column block");
      return owner(v);
    }
    ATLC_DCHECK(v < n_ && b < grid_cols_, "segment out of range");
    return axis_block(n_, grid_rows_, v) * grid_cols_ + b;
  }

  /// Rank storing the segment of u's row that would contain neighbor v,
  /// i.e. the owner of edge slot (u, v) under the 2D grid. Degrades to
  /// owner(u) for 1D kinds.
  [[nodiscard]] std::uint32_t edge_owner(VertexId u, VertexId v) const {
    return segment_owner(u, col_block_of(v));
  }

  /// Owning rank of a global vertex. Under Grid2D this is the vertex's
  /// *home* rank (row_block(v), col_block(v)) — the unique rank charged
  /// with per-vertex bookkeeping (adjudication, hub skip pricing); note
  /// the home rank's stored segment is just one slice of v's row.
  [[nodiscard]] std::uint32_t owner(VertexId v) const {
    ATLC_DCHECK(v < n_, "vertex out of range");
    if (kind_ == PartitionKind::Cyclic1D) return v % p_;
    if (kind_ == PartitionKind::DegreeBalanced1D) {
      // First rank whose end cut exceeds v; empty ranges (cuts_[r] ==
      // cuts_[r+1]) are skipped by upper_bound automatically.
      const auto it = std::upper_bound(cuts_.begin() + 1, cuts_.end(), v);
      return static_cast<std::uint32_t>(it - (cuts_.begin() + 1));
    }
    if (kind_ == PartitionKind::Grid2D)
      return axis_block(n_, grid_rows_, v) * grid_cols_ +
             axis_block(n_, grid_cols_, v);
    // Block: the first `extra_` ranks own (base_+1) vertices each.
    const VertexId cutoff = (base_ + 1) * extra_;
    if (v < cutoff) return v / (base_ + 1);
    return extra_ + (v - cutoff) / base_;
  }

  /// Number of local row slots on `rank`. For both 1D closed-form kinds the
  /// counts coincide: the first n%p ranks own one extra vertex (Block1D
  /// front-loads them as blocks, Cyclic1D interleaves them). Under Grid2D
  /// every rank of grid row r holds a (segment) slot for each vertex of row
  /// block r, so the pc ranks of a grid row report the same size.
  [[nodiscard]] VertexId part_size(std::uint32_t rank) const {
    ATLC_DCHECK(rank < p_, "rank out of range");
    if (kind_ == PartitionKind::DegreeBalanced1D)
      return cuts_[rank + 1] - cuts_[rank];
    if (kind_ == PartitionKind::Grid2D) {
      const std::uint32_t r = grid_row(rank);
      return axis_begin(n_, grid_rows_, r + 1) - axis_begin(n_, grid_rows_, r);
    }
    return base_ + (rank < extra_ ? 1 : 0);
  }

  /// First global vertex owned by `rank` (contiguous kinds only; under
  /// Grid2D: first vertex of the rank's row block).
  [[nodiscard]] VertexId block_begin(std::uint32_t rank) const {
    ATLC_DCHECK(kind_ != PartitionKind::Cyclic1D,
                "block_begin: contiguous kinds only");
    if (kind_ == PartitionKind::DegreeBalanced1D) return cuts_[rank];
    if (kind_ == PartitionKind::Grid2D)
      return axis_begin(n_, grid_rows_, grid_row(rank));
    return rank < extra_ ? (base_ + 1) * rank
                         : (base_ + 1) * extra_ + base_ * (rank - extra_);
  }

  /// Local index of global vertex v on its owner rank.
  [[nodiscard]] VertexId local_index(VertexId v) const {
    if (kind_ == PartitionKind::Cyclic1D) return v / p_;
    return v - block_begin(owner(v));
  }

  /// Global id of local index `l` on `rank`.
  [[nodiscard]] VertexId global_id(std::uint32_t rank, VertexId l) const {
    if (kind_ == PartitionKind::Cyclic1D) return l * p_ + rank;
    return block_begin(rank) + l;
  }

 private:
  /// Closed-form Block1D arithmetic over one grid axis: split [0, n) into
  /// `parts` contiguous ranges, the first n % parts ranges one longer
  /// (exactly the Block1D remainder rule, reused for both grid axes).
  [[nodiscard]] static VertexId axis_begin(VertexId n, std::uint32_t parts,
                                           std::uint32_t r) {
    const VertexId base = n / parts;
    const VertexId extra = n % parts;
    return r < extra ? (base + 1) * r : (base + 1) * extra + base * (r - extra);
  }
  [[nodiscard]] static std::uint32_t axis_block(VertexId n,
                                                std::uint32_t parts,
                                                VertexId v) {
    const VertexId base = n / parts;
    const VertexId extra = n % parts;
    const VertexId cutoff = (base + 1) * extra;
    // base == 0 (n < parts) falls into the first branch: every v < cutoff.
    if (v < cutoff) return static_cast<std::uint32_t>(v / (base + 1));
    return static_cast<std::uint32_t>(extra + (v - cutoff) / base);
  }

  PartitionKind kind_;
  VertexId n_;
  std::uint32_t p_;
  VertexId base_;
  VertexId extra_;
  std::uint32_t grid_rows_ = 1;  ///< pr (Grid2D; 1 for 1D kinds)
  std::uint32_t grid_cols_ = 1;  ///< pc (Grid2D; 1 for 1D kinds)
  std::vector<VertexId> cuts_;  ///< p+1 range boundaries (DegreeBalanced1D)
};

/// Build a partition of `g` for `ranks`: closed-form for Block1D/Cyclic1D,
/// degree-prefix-sum cuts (fed from g's degree sequence) for
/// DegreeBalanced1D. The one entry point drivers should use when the kind
/// is runtime-selected.
[[nodiscard]] Partition make_partition(const CSRGraph& g, PartitionKind kind,
                                       std::uint32_t ranks);

/// Human-readable kind name ("block1d" / "cyclic1d" / "degree1d" /
/// "grid2d"), the spelling the CLI and the bench JSON use.
[[nodiscard]] const char* partition_kind_name(PartitionKind kind);

/// Inverse of partition_kind_name, also accepting the CLI aliases "block"
/// and "cyclic". nullopt for any other name.
[[nodiscard]] std::optional<PartitionKind> parse_partition_kind(
    std::string_view name);

}  // namespace atlc::graph
