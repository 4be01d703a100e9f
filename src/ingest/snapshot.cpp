#include "atlc/ingest/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "atlc/util/check.hpp"

namespace atlc::ingest {

namespace {

using snapshot_v2::Extent;
using snapshot_v2::kHeaderBytes;
using snapshot_v2::kKindCount;
using snapshot_v2::kMagic;
using snapshot_v2::kVersion;

using graph::File;
using graph::file_size_or_throw;
using graph::open_or_throw;

void write_bytes(std::FILE* f, const void* data, std::size_t bytes,
                 const std::string& path) {
  if (bytes > 0 && std::fwrite(data, 1, bytes, f) != bytes)
    throw std::runtime_error("atlc: short write (disk full?): " + path);
}

void write_u32(std::FILE* f, std::uint32_t v, const std::string& path) {
  write_bytes(f, &v, sizeof(v), path);
}

void write_u64(std::FILE* f, std::uint64_t v, const std::string& path) {
  write_bytes(f, &v, sizeof(v), path);
}

void read_bytes(std::FILE* f, void* data, std::size_t bytes,
                const std::string& path) {
  if (bytes > 0 && std::fread(data, 1, bytes, f) != bytes)
    throw std::runtime_error("atlc: truncated snapshot (short read): " + path);
}

std::uint32_t read_u32(std::FILE* f, const std::string& path) {
  std::uint32_t v = 0;
  read_bytes(f, &v, sizeof(v), path);
  return v;
}

std::uint64_t read_u64(std::FILE* f, const std::string& path) {
  std::uint64_t v = 0;
  read_bytes(f, &v, sizeof(v), path);
  return v;
}

void seek_or_throw(std::FILE* f, std::uint64_t offset,
                   const std::string& path) {
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0)
    throw std::runtime_error("atlc: cannot seek: " + path);
}

}  // namespace

// ---------------------------------------------------------------------------
// SnapshotWriter

SnapshotWriter::SnapshotWriter(const std::string& path, VertexId num_vertices,
                               Directedness directedness,
                               std::vector<Partition> partitions)
    : path_(path), n_(num_vertices), dir_(directedness),
      parts_(std::move(partitions)) {
  ATLC_CHECK(parts_.size() == kKindCount,
             "SnapshotWriter: one partition per PartitionKind");
  bool seen[kKindCount] = {};
  for (const Partition& p : parts_) {
    const auto k = static_cast<std::size_t>(p.kind());
    ATLC_CHECK(k < kKindCount && !seen[k],
               "SnapshotWriter: partitions must cover distinct kinds");
    seen[k] = true;
    ATLC_CHECK(p.num_vertices() == n_,
               "SnapshotWriter: partition vertex count mismatch");
    ATLC_CHECK(p.num_ranks() == parts_.front().num_ranks(),
               "SnapshotWriter: partitions must agree on rank count");
  }
  extents_.assign(parts_.size(), {});
  for (std::size_t k = 0; k < parts_.size(); ++k)
    extents_[k].assign(parts_[k].num_ranks(), {});
  write_buf_.reserve(std::size_t{1} << 15);

  File f = open_or_throw(path_, "wb");
  f_ = f.release();
  // Header and degrees are back-patched by finalize() (the edge count and
  // section offsets depend on the stream length); seek straight to the
  // fixed edges_offset and stream the payload.
  seek_or_throw(f_, kHeaderBytes + std::uint64_t{n_} * sizeof(VertexId),
                path_);
}

SnapshotWriter::~SnapshotWriter() {
  if (f_) std::fclose(f_);
  // A writer destroyed before finalize() leaves no plausible-looking file.
  if (!finalized_) std::remove(path_.c_str());
}

void SnapshotWriter::flush() {
  write_bytes(f_, write_buf_.data(), write_buf_.size() * sizeof(Edge), path_);
  write_buf_.clear();
}

void SnapshotWriter::append(Edge e) {
  ATLC_CHECK(!finalized_, "SnapshotWriter: append() after finalize()");
  ATLC_CHECK(e.u < n_ && e.v < n_, "SnapshotWriter: endpoint out of range");
  ATLC_CHECK(e.u != e.v, "SnapshotWriter: self loop in cleaned stream");
  ATLC_CHECK(m_ == 0 || last_ < e,
             "SnapshotWriter: edges must arrive strictly increasing");
  last_ = e;

  for (std::size_t k = 0; k < parts_.size(); ++k) {
    const std::uint32_t rank = parts_[k].edge_owner(e.u, e.v);
    auto& list = extents_[k][rank];
    if (!list.empty() && list.back().begin + list.back().count == m_) {
      ++list.back().count;
    } else {
      list.push_back({m_, 1});
    }
  }
  edge_checksum_ = snapshot_v2::fnv1a64(&e, sizeof(e), edge_checksum_);
  write_buf_.push_back(e);
  if (write_buf_.size() == write_buf_.capacity()) flush();
  ++m_;
}

std::uint64_t SnapshotWriter::extents_total(std::size_t k) const {
  ATLC_CHECK(k < extents_.size(), "kind slot out of range");
  std::uint64_t total = 0;
  for (const auto& per_rank : extents_[k]) total += per_rank.size();
  return total;
}

void SnapshotWriter::finalize(std::span<const VertexId> degrees) {
  ATLC_CHECK(!finalized_, "SnapshotWriter: finalize() called twice");
  ATLC_CHECK(degrees.size() == n_,
             "SnapshotWriter: degree array must have one entry per vertex");
  flush();

  const std::uint64_t degrees_offset = kHeaderBytes;
  const std::uint64_t edges_offset =
      degrees_offset + std::uint64_t{n_} * sizeof(VertexId);
  const std::uint64_t index_offset = edges_offset + m_ * sizeof(Edge);

  // Slice index: one section per kind, in the partition order given.
  seek_or_throw(f_, index_offset, path_);
  for (std::size_t k = 0; k < parts_.size(); ++k) {
    const std::uint32_t ranks = parts_[k].num_ranks();
    write_u32(f_, static_cast<std::uint32_t>(parts_[k].kind()), path_);
    write_u32(f_, 0, path_);
    write_u64(f_, extents_total(k), path_);
    std::uint64_t prefix = 0;
    for (std::uint32_t r = 0; r <= ranks; ++r) {
      write_u64(f_, prefix, path_);
      if (r < ranks) prefix += extents_[k][r].size();
    }
    for (std::uint32_t r = 0; r < ranks; ++r)
      write_bytes(f_, extents_[k][r].data(),
                  extents_[k][r].size() * sizeof(Extent), path_);
  }
  const long end = std::ftell(f_);
  if (end < 0) throw std::runtime_error("atlc: cannot stat: " + path_);
  const auto file_bytes = static_cast<std::uint64_t>(end);

  seek_or_throw(f_, degrees_offset, path_);
  write_bytes(f_, degrees.data(), degrees.size() * sizeof(VertexId), path_);
  degree_checksum_ = snapshot_v2::fnv1a64(
      degrees.data(), degrees.size() * sizeof(VertexId));

  seek_or_throw(f_, 0, path_);
  write_u32(f_, kMagic, path_);
  write_u32(f_, kVersion, path_);
  write_u32(f_, dir_ == Directedness::Directed ? 1u : 0u, path_);
  write_u32(f_, n_, path_);
  write_u64(f_, m_, path_);
  write_u32(f_, parts_.front().num_ranks(), path_);
  write_u32(f_, kKindCount, path_);
  write_u64(f_, degrees_offset, path_);
  write_u64(f_, edges_offset, path_);
  write_u64(f_, index_offset, path_);
  write_u64(f_, file_bytes, path_);
  write_u64(f_, edge_checksum_, path_);
  write_u64(f_, degree_checksum_, path_);

  if (std::fflush(f_) != 0)
    throw std::runtime_error("atlc: short write (disk full?): " + path_);
  std::fclose(f_);
  f_ = nullptr;
  finalized_ = true;
}

// ---------------------------------------------------------------------------
// SnapshotReader

bool SnapshotReader::sniff(const std::string& path) {
  return graph::sniff_format(path) == graph::FileFormat::Snapshot;
}

SnapshotReader::SnapshotReader(const std::string& path) : path_(path) {
  File f = open_or_throw(path_, "rb");
  const std::uint64_t actual_bytes = file_size_or_throw(f.get(), path_);
  if (actual_bytes < kHeaderBytes)
    throw std::runtime_error(
        "atlc: truncated snapshot header (file smaller than the v2 "
        "header): " + path_);

  const std::uint32_t magic = read_u32(f.get(), path_);
  const std::uint32_t version = read_u32(f.get(), path_);
  if (magic != kMagic)
    throw std::runtime_error("atlc: bad magic (not an ATLC file): " + path_);
  if (version != kVersion) {
    if (version == 1)
      throw std::runtime_error(
          "atlc: v1 binary edge list, not a v2 snapshot — load it with "
          "graph::load_binary_edges (or re-ingest with atlc_ingest): " +
          path_);
    throw std::runtime_error("atlc: unsupported snapshot version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kVersion) + "): " + path_);
  }
  const std::uint32_t dir_flag = read_u32(f.get(), path_);
  if (dir_flag > 1)
    throw std::runtime_error("atlc: corrupt directedness flag: " + path_);
  dir_ = dir_flag ? Directedness::Directed : Directedness::Undirected;
  n_ = read_u32(f.get(), path_);
  m_ = read_u64(f.get(), path_);
  ranks_ = read_u32(f.get(), path_);
  const std::uint32_t kind_count = read_u32(f.get(), path_);
  const std::uint64_t degrees_offset = read_u64(f.get(), path_);
  edges_offset_ = read_u64(f.get(), path_);
  const std::uint64_t index_offset = read_u64(f.get(), path_);
  const std::uint64_t file_bytes = read_u64(f.get(), path_);
  edge_checksum_ = read_u64(f.get(), path_);
  const std::uint64_t degree_checksum = read_u64(f.get(), path_);

  if (ranks_ == 0)
    throw std::runtime_error("atlc: corrupt rank count (0): " + path_);
  if (kind_count != kKindCount)
    throw std::runtime_error(
        "atlc: unsupported slice-index kind count " +
        std::to_string(kind_count) + " (expected " +
        std::to_string(kKindCount) + "): " + path_);
  if (degrees_offset != kHeaderBytes ||
      edges_offset_ != degrees_offset + std::uint64_t{n_} * sizeof(VertexId) ||
      index_offset != edges_offset_ + m_ * sizeof(Edge))
    throw std::runtime_error(
        "atlc: corrupt section offsets (header does not describe a "
        "header/degrees/edges/index layout): " + path_);
  if (file_bytes != actual_bytes)
    throw std::runtime_error(
        "atlc: declared file size " + std::to_string(file_bytes) +
        " does not match actual size " + std::to_string(actual_bytes) +
        " (truncated or corrupt): " + path_);
  if (index_offset > actual_bytes)
    throw std::runtime_error("atlc: truncated snapshot (slice index starts "
                             "past end of file): " + path_);

  degrees_.resize(n_);
  seek_or_throw(f.get(), degrees_offset, path_);
  read_bytes(f.get(), degrees_.data(), degrees_.size() * sizeof(VertexId),
             path_);
  if (snapshot_v2::fnv1a64(degrees_.data(),
                           degrees_.size() * sizeof(VertexId)) !=
      degree_checksum)
    throw std::runtime_error(
        "atlc: degree array checksum mismatch (corrupt payload): " + path_);

  seek_or_throw(f.get(), index_offset, path_);
  for (std::uint32_t section = 0; section < kind_count; ++section) {
    const std::uint32_t tag = read_u32(f.get(), path_);
    (void)read_u32(f.get(), path_);  // reserved
    if (tag >= kKindCount)
      throw std::runtime_error("atlc: corrupt slice index (bad partition "
                               "kind tag): " + path_);
    KindIndex& ki = index_[tag];
    if (ki.present)
      throw std::runtime_error("atlc: corrupt slice index (duplicate "
                               "partition kind section): " + path_);
    ki.present = true;
    const std::uint64_t total = read_u64(f.get(), path_);
    ki.rank_prefix.resize(std::size_t{ranks_} + 1);
    for (auto& p : ki.rank_prefix) p = read_u64(f.get(), path_);
    if (ki.rank_prefix.front() != 0 || ki.rank_prefix.back() != total ||
        !std::is_sorted(ki.rank_prefix.begin(), ki.rank_prefix.end()))
      throw std::runtime_error("atlc: corrupt slice index (rank prefix not "
                               "monotone): " + path_);
    ki.extents.resize(total);
    read_bytes(f.get(), ki.extents.data(), total * sizeof(Extent), path_);
    std::uint64_t covered = 0;
    for (std::uint32_t r = 0; r < ranks_; ++r) {
      std::uint64_t prev_end = 0;
      for (std::uint64_t i = ki.rank_prefix[r]; i < ki.rank_prefix[r + 1];
           ++i) {
        const Extent& e = ki.extents[i];
        if (e.count == 0 || e.begin > m_ || e.count > m_ - e.begin ||
            (i > ki.rank_prefix[r] && e.begin < prev_end))
          throw std::runtime_error(
              "atlc: corrupt slice index (extent out of range or "
              "overlapping): " + path_);
        prev_end = e.begin + e.count;
        covered += e.count;
      }
    }
    if (covered != m_)
      throw std::runtime_error(
          "atlc: corrupt slice index (extents cover " +
          std::to_string(covered) + " of " + std::to_string(m_) +
          " edges): " + path_);
  }
  const long pos = std::ftell(f.get());
  if (pos < 0 || static_cast<std::uint64_t>(pos) != actual_bytes)
    throw std::runtime_error(
        "atlc: trailing bytes after the slice index (corrupt): " + path_);
}

std::uint64_t SnapshotReader::extents_total(PartitionKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  ATLC_CHECK(k < kKindCount && index_[k].present,
             "partition kind not indexed in snapshot");
  return index_[k].extents.size();
}

EdgeList SnapshotReader::read_all() const {
  File f = open_or_throw(path_, "rb");
  seek_or_throw(f.get(), edges_offset_, path_);
  std::vector<Edge> edges(m_);
  read_bytes(f.get(), edges.data(), edges.size() * sizeof(Edge), path_);
  std::uint64_t checksum = snapshot_v2::kFnvOffsetBasis;
  if (!edges.empty())
    checksum = snapshot_v2::fnv1a64(edges.data(), edges.size() * sizeof(Edge));
  if (checksum != edge_checksum_)
    throw std::runtime_error(
        "atlc: edge payload checksum mismatch (corrupt payload): " + path_);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.u >= n_ || e.v >= n_)
      throw std::runtime_error(
          "atlc: edge endpoint out of range (vertex >= " +
          std::to_string(n_) + "; corrupt payload): " + path_);
    if (i > 0 && !(edges[i - 1] < e))
      throw std::runtime_error(
          "atlc: edge payload not sorted-unique (corrupt payload): " + path_);
  }
  return EdgeList(n_, std::move(edges), dir_);
}

void SnapshotReader::read_slice(const Partition& partition, std::uint32_t rank,
                                std::vector<EdgeIndex>& offsets,
                                std::vector<VertexId>& adjacencies) const {
  ATLC_CHECK(partition.num_vertices() == n_,
             "snapshot/partition vertex count mismatch");
  ATLC_CHECK(partition.num_ranks() == ranks_,
             "snapshot/partition rank count mismatch");
  ATLC_CHECK(rank < ranks_, "rank out of range");
  const auto k = static_cast<std::size_t>(partition.kind());
  ATLC_CHECK(k < kKindCount && index_[k].present,
             "partition kind not indexed in snapshot");
  const KindIndex& ki = index_[k];

  // Grid2D slices must stay inside the rank's column block; checking while
  // streaming keeps a corrupt index from silently producing a wrong slice.
  const auto [col_lo, col_hi] =
      partition.col_block_range(partition.col_blocks() > 1
                                    ? partition.grid_col(rank)
                                    : 0);

  const VertexId n_local = partition.part_size(rank);
  std::uint64_t total = 0;
  for (std::uint64_t i = ki.rank_prefix[rank]; i < ki.rank_prefix[rank + 1];
       ++i)
    total += ki.extents[i].count;

  offsets.clear();
  offsets.reserve(static_cast<std::size_t>(n_local) + 1);
  offsets.push_back(0);
  adjacencies.clear();
  adjacencies.reserve(total);

  File f = open_or_throw(path_, "rb");
  VertexId cur = 0;  // local row currently receiving edges
  std::vector<Edge> buf;
  for (std::uint64_t i = ki.rank_prefix[rank]; i < ki.rank_prefix[rank + 1];
       ++i) {
    const Extent& ext = ki.extents[i];
    seek_or_throw(f.get(), edges_offset_ + ext.begin * sizeof(Edge), path_);
    std::uint64_t remaining = ext.count;
    while (remaining > 0) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(remaining, 1u << 15));
      buf.resize(want);
      read_bytes(f.get(), buf.data(), want * sizeof(Edge), path_);
      remaining -= want;
      for (const Edge& e : buf) {
        while (cur < n_local && partition.global_id(rank, cur) < e.u) {
          offsets.push_back(adjacencies.size());
          ++cur;
        }
        if (cur >= n_local || partition.global_id(rank, cur) != e.u ||
            e.v < col_lo || e.v >= col_hi)
          throw std::runtime_error(
              "atlc: corrupt slice index (edge not owned by the rank it is "
              "indexed under): " + path_);
        adjacencies.push_back(e.v);
      }
    }
  }
  while (cur < n_local) {
    offsets.push_back(adjacencies.size());
    ++cur;
  }
}

}  // namespace atlc::ingest
