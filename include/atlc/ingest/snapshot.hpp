#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "atlc/core/dist_graph.hpp"
#include "atlc/graph/edge_list.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/types.hpp"

namespace atlc::ingest {

using graph::Directedness;
using graph::Edge;
using graph::EdgeIndex;
using graph::EdgeList;
using graph::Partition;
using graph::PartitionKind;
using graph::VertexId;

/// Binary snapshot format v2: the out-of-core successor of the v1 binary
/// edge list (graph/io.hpp). Same magic, version 2; the payload is the
/// CLEANED graph — deduped, self-loop-free, optionally relabeled, edges
/// sorted lexicographically by (u, v) — plus a per-PartitionKind slice
/// index that lets each rank seek-read only its slice (DESIGN.md §11).
///
/// Layout (host-endian, fixed-width fields, no struct padding):
///   header            (kHeaderBytes, field offsets below)
///   degrees           n x u32 out-degrees, at degrees_offset
///   edges             m x {u32 u, u32 v},  at edges_offset
///   slice index       kKindCount kind sections, at index_offset
///
/// Each kind section:
///   u32 kind_tag (PartitionKind value), u32 reserved(0),
///   u64 total_extents,
///   u64 rank_prefix[ranks+1]   (extent-array index per rank, monotone),
///   {u64 begin, u64 count} x total_extents
///
/// An *extent* is a maximal run of consecutive edge slots owned by one
/// rank under that kind's owner function (edge_owner(u, v), which for 1D
/// kinds is owner(u)). Because edges are sorted by (u, v): Block1D and
/// DegreeBalanced1D collapse to one extent per rank (contiguous vertex
/// ranges); Cyclic1D gets one extent per owned vertex run; Grid2D one per
/// (row, column-block) segment run — O(n) to O(n*pc) entries, an index
/// size trade-off documented in DESIGN.md §11.
namespace snapshot_v2 {

constexpr std::uint32_t kMagic = graph::kFileMagic;  // shared with v1
constexpr std::uint32_t kVersion = graph::kSnapshotVersion;
constexpr std::uint32_t kKindCount = 4;

// Header field byte offsets (also the corruption-test patch points).
constexpr std::size_t kMagicOffset = 0;           // u32
constexpr std::size_t kVersionOffset = 4;         // u32
constexpr std::size_t kDirectednessOffset = 8;    // u32 (0/1)
constexpr std::size_t kNumVerticesOffset = 12;    // u32
constexpr std::size_t kNumEdgesOffset = 16;       // u64
constexpr std::size_t kRanksOffset = 24;          // u32
constexpr std::size_t kKindCountOffset = 28;      // u32
constexpr std::size_t kDegreesOffsetOffset = 32;  // u64
constexpr std::size_t kEdgesOffsetOffset = 40;    // u64
constexpr std::size_t kIndexOffsetOffset = 48;    // u64
constexpr std::size_t kFileBytesOffset = 56;      // u64
constexpr std::size_t kEdgeChecksumOffset = 64;   // u64 FNV-1a over edges
constexpr std::size_t kDegreeChecksumOffset = 72; // u64 FNV-1a over degrees
constexpr std::size_t kHeaderBytes = 80;

struct Extent {
  std::uint64_t begin = 0;
  std::uint64_t count = 0;
};

/// FNV-1a 64-bit over a byte range, chainable via `state`.
constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                             std::uint64_t state = kFnvOffsetBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= 0x100000001b3ull;
  }
  return state;
}

}  // namespace snapshot_v2

/// Streaming writer for snapshot v2. Usage:
///   SnapshotWriter w(path, n, dir, partitions);   // one per kind
///   for each edge in sorted order: w.append(e);
///   w.finalize(degrees);
///
/// append() builds the per-kind extent lists incrementally and checksums
/// the payload; finalize() writes degrees + index and patches the header
/// (edge count and section offsets depend on m, which is only known once
/// the stream ends). Edges must arrive strictly increasing by (u, v) —
/// deduped, self-loop-free; violations throw.
class SnapshotWriter {
 public:
  SnapshotWriter(const std::string& path, VertexId num_vertices,
                 Directedness directedness, std::vector<Partition> partitions);
  ~SnapshotWriter();
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  void append(Edge e);
  void finalize(std::span<const VertexId> degrees);

  [[nodiscard]] std::uint64_t num_edges() const { return m_; }
  [[nodiscard]] std::uint64_t edge_checksum() const { return edge_checksum_; }
  [[nodiscard]] std::uint64_t degree_checksum() const {
    return degree_checksum_;
  }
  /// Total extents recorded for partition-kind slot k (0..kKindCount-1).
  [[nodiscard]] std::uint64_t extents_total(std::size_t k) const;

 private:
  void flush();

  std::string path_;
  std::FILE* f_ = nullptr;
  VertexId n_;
  Directedness dir_;
  std::vector<Partition> parts_;
  std::uint64_t m_ = 0;
  Edge last_{0, 0};
  std::uint64_t edge_checksum_ = snapshot_v2::kFnvOffsetBasis;
  std::uint64_t degree_checksum_ = snapshot_v2::kFnvOffsetBasis;
  std::vector<Edge> write_buf_;
  /// extents_[kind][rank] = this rank's extent list under that kind.
  std::vector<std::vector<std::vector<snapshot_v2::Extent>>> extents_;
  bool finalized_ = false;
};

/// Validating reader for snapshot v2; implements core::LocalSliceSource so
/// build_dist_graph can seek-read per-rank slices straight off the file.
///
/// The constructor validates the container (magic, version, section
/// offsets vs actual file size, index structure: monotone rank prefixes,
/// in-range non-overlapping extents covering all m edges per kind) and
/// the degree-array checksum; read_all() additionally verifies the edge
/// payload checksum and per-edge invariants. Violations throw
/// std::runtime_error with an "atlc:"-prefixed message naming the failure.
///
/// read_slice() opens its own file handle per call, so concurrent calls
/// from all rank threads are safe (the runtime's threads-as-ranks model).
class SnapshotReader final : public core::LocalSliceSource {
 public:
  explicit SnapshotReader(const std::string& path);

  /// True when graph::sniff_format() calls the file a v2 snapshot (cheap;
  /// the full validation happens in the constructor).
  [[nodiscard]] static bool sniff(const std::string& path);

  [[nodiscard]] VertexId num_vertices() const { return n_; }
  [[nodiscard]] std::uint64_t num_edges() const { return m_; }
  [[nodiscard]] Directedness directedness() const { return dir_; }
  [[nodiscard]] std::uint32_t ranks() const { return ranks_; }
  [[nodiscard]] std::uint64_t edge_checksum() const { return edge_checksum_; }
  [[nodiscard]] const std::vector<VertexId>& degrees() const {
    return degrees_;
  }
  [[nodiscard]] std::uint64_t extents_total(PartitionKind kind) const;

  /// Load the full cleaned edge list (every rank's slices concatenated);
  /// verifies the payload checksum, the sorted-unique order, and endpoint
  /// ranges.
  [[nodiscard]] EdgeList read_all() const;

  /// Seek-read rank `rank`'s local CSR slice under `partition`. The
  /// partition must match the snapshot (vertex/rank counts) and use one of
  /// the four indexed kinds; row/owner mismatches surface as "atlc:"
  /// corruption errors (the stored edge ids must line up with the
  /// partition's global_id walk).
  void read_slice(const Partition& partition, std::uint32_t rank,
                  std::vector<EdgeIndex>& offsets,
                  std::vector<VertexId>& adjacencies) const override;

 private:
  struct KindIndex {
    bool present = false;
    std::vector<std::uint64_t> rank_prefix;        // ranks+1
    std::vector<snapshot_v2::Extent> extents;
  };

  std::string path_;
  VertexId n_ = 0;
  std::uint64_t m_ = 0;
  Directedness dir_ = Directedness::Undirected;
  std::uint32_t ranks_ = 0;
  std::uint64_t edges_offset_ = 0;
  std::uint64_t edge_checksum_ = 0;
  std::vector<VertexId> degrees_;
  KindIndex index_[snapshot_v2::kKindCount];
};

}  // namespace atlc::ingest
