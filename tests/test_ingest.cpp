// The out-of-core ingest pipeline (DESIGN.md §11): the parallel/external
// sort, snapshot v2 round-trips against the in-memory load+clean path,
// partition-slice equivalence, spill-path byte identity, and the
// corruption/back-compat matrix of the v2 container.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/ingest/external_sorter.hpp"
#include "atlc/ingest/pipeline.hpp"
#include "atlc/ingest/snapshot.hpp"

namespace {

using namespace atlc;
using graph::Directedness;
using graph::Edge;
using graph::VertexId;

/// This process's scratch directory, removed at exit. The process id in
/// its name keeps two test_ingest runs at once (two build trees under one
/// parallel ctest) from overwriting each other's files.
struct ScratchDir {
  std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) /
      ("atlc_ingest_" + std::to_string(::getpid()));
  ScratchDir() { std::filesystem::create_directories(path); }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string tmp_path(const std::string& name) {
  static const ScratchDir dir;
  return (dir.path / name).string();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  f.write(content.data(), static_cast<std::streamsize>(content.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

/// Raw (uncleaned) R-MAT instance: duplicates and self loops included.
graph::EdgeList raw_rmat(unsigned scale, unsigned ef, std::uint64_t seed,
                         Directedness dir = Directedness::Undirected) {
  return graph::generate_rmat(
      {.scale = scale, .edge_factor = ef, .seed = seed, .directedness = dir});
}

/// The reference the snapshot payload must match bit-for-bit: the legacy
/// loader's EdgeList pushed through graph::clean() with the given seed,
/// edges sorted (the snapshot stores sorted edges; clean() leaves them in
/// removal order, and CSR construction is order-independent).
std::vector<Edge> cleaned_sorted(graph::EdgeList edges, std::uint64_t seed) {
  graph::clean(edges, {.relabel_seed = seed});
  auto sorted = edges.edges();
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

void expect_snapshot_equals(const std::string& snap_path,
                            const graph::EdgeList& reference_raw,
                            std::uint64_t seed) {
  graph::EdgeList ref = reference_raw;
  const auto ref_n = [&] {
    graph::EdgeList probe = reference_raw;
    graph::clean(probe, {.relabel_seed = seed});
    return probe.num_vertices();
  }();
  const auto ref_edges = cleaned_sorted(std::move(ref), seed);

  ingest::SnapshotReader reader(snap_path);
  const auto loaded = reader.read_all();
  EXPECT_EQ(loaded.num_vertices(), ref_n);
  EXPECT_EQ(loaded.directedness(), reference_raw.directedness());
  ASSERT_EQ(loaded.edges().size(), ref_edges.size());
  EXPECT_TRUE(loaded.edges() == ref_edges) << "edge payload differs";

  std::vector<VertexId> deg(ref_n, 0);
  for (const Edge& e : ref_edges) ++deg[e.u];
  EXPECT_TRUE(reader.degrees() == deg) << "stored degrees differ";
}

// ---------------------------------------------------------------------------
// parallel sort + external sorter

TEST(ParallelSortEdges, MatchesStdSort) {
  std::mt19937 rng(99);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{255},
                        std::size_t{100000}}) {
    std::vector<Edge> edges(n);
    for (Edge& e : edges)
      e = {static_cast<VertexId>(rng() % 512),
           static_cast<VertexId>(rng() % 512)};
    auto expect = edges;
    std::sort(expect.begin(), expect.end());
    for (int threads : {1, 2, 4, 8}) {
      auto got = edges;
      ingest::parallel_sort_edges(got, threads);
      EXPECT_TRUE(got == expect) << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(ExternalEdgeSorter, SpillPathMatchesInMemoryAndIsRerunnable) {
  std::mt19937 rng(5);
  std::vector<Edge> edges(50000);
  for (Edge& e : edges)
    e = {static_cast<VertexId>(rng() % 1024),
         static_cast<VertexId>(rng() % 1024)};
  auto expect = edges;
  std::sort(expect.begin(), expect.end());

  const std::string prefix = tmp_path("sorter");
  ingest::ExternalEdgeSorter sorter(prefix, 32 * 1024, 2);  // ~4K edge budget
  // Feed in parse-batch-sized chunks so the watermark trips repeatedly (a
  // single giant add() would spill exactly once).
  for (std::size_t i = 0; i < edges.size(); i += 5000)
    sorter.add(std::span<const Edge>(edges).subspan(
        i, std::min<std::size_t>(5000, edges.size() - i)));
  sorter.finish();
  EXPECT_GE(sorter.spill_runs(), 2u);
  EXPECT_EQ(sorter.total_edges(), edges.size());

  for (int replay = 0; replay < 2; ++replay) {
    std::vector<Edge> got;
    got.reserve(edges.size());
    sorter.for_each_sorted([&](const Edge& e) { got.push_back(e); });
    EXPECT_TRUE(got == expect) << "replay " << replay;
  }

  sorter.clear();
  EXPECT_FALSE(std::filesystem::exists(prefix + ".run0"));
}

// ---------------------------------------------------------------------------
// Full pipeline vs the in-memory load+clean path

TEST(Ingest, TextInputMatchesInMemoryCleanAcrossConfigs) {
  const auto raw = raw_rmat(9, 8, 7);
  const std::string text = tmp_path("text_rt.txt");
  graph::save_text_edges(raw, text);
  const auto reference = graph::load_text_edges(text, Directedness::Undirected);

  // Sweep threads x chunk size x budget: every configuration must produce a
  // byte-identical snapshot, equal to the in-memory clean.
  std::string first_bytes;
  int variant = 0;
  struct Cfg {
    int threads;
    std::size_t chunk;
    std::uint64_t budget;
  };
  for (const Cfg& c : {Cfg{1, 1u << 20, 0}, Cfg{4, 333, 0},
                       Cfg{2, 4096, 16 * 1024}, Cfg{4, 57, 8 * 1024}}) {
    const std::string snap =
        tmp_path("text_rt_" + std::to_string(variant++) + ".v2");
    ingest::IngestOptions opt;
    opt.num_threads = c.threads;
    opt.chunk_bytes = c.chunk;
    opt.mem_budget_bytes = c.budget;
    opt.ranks = 4;
    opt.relabel_seed = 11;
    const auto rep = ingest::run_ingest(text, snap, opt);
    EXPECT_GT(rep.bytes_read, 0u);
    EXPECT_GT(rep.lines, 0u);
    expect_snapshot_equals(snap, reference, 11);
    const std::string bytes = read_file(snap);
    if (first_bytes.empty())
      first_bytes = bytes;
    else
      EXPECT_TRUE(bytes == first_bytes)
          << "snapshot bytes differ for threads=" << c.threads
          << " chunk=" << c.chunk << " budget=" << c.budget;
  }
}

TEST(Ingest, BinaryInputMatchesInMemoryClean) {
  const auto raw = raw_rmat(9, 6, 3);
  const std::string bin = tmp_path("bin_rt.bin");
  graph::save_binary_edges(raw, bin);
  const auto reference = graph::load_binary_edges(bin);

  const std::string snap = tmp_path("bin_rt.v2");
  ingest::IngestOptions opt;
  opt.ranks = 8;
  opt.relabel_seed = 5;
  const auto rep = ingest::run_ingest(bin, snap, opt);
  EXPECT_EQ(rep.input_kind, "binary-v1");
  EXPECT_EQ(rep.pairs_parsed, raw.num_edges());
  expect_snapshot_equals(snap, reference, 5);
}

TEST(Ingest, DirectedTextInput) {
  const auto raw = raw_rmat(8, 6, 13, Directedness::Directed);
  const std::string text = tmp_path("directed.txt");
  graph::save_text_edges(raw, text);
  const auto reference = graph::load_text_edges(text, Directedness::Directed);

  const std::string snap = tmp_path("directed.v2");
  ingest::IngestOptions opt;
  opt.directedness = Directedness::Directed;
  opt.relabel_seed = 2;
  const auto rep = ingest::run_ingest(text, snap, opt);
  EXPECT_EQ(rep.input_kind, "text");
  expect_snapshot_equals(snap, reference, 2);
  ingest::SnapshotReader reader(snap);
  EXPECT_EQ(reader.directedness(), Directedness::Directed);
}

TEST(Ingest, RelabelNoneMatchesSeedZeroClean) {
  const auto raw = raw_rmat(8, 8, 21);
  const std::string bin = tmp_path("none.bin");
  graph::save_binary_edges(raw, bin);

  const std::string snap = tmp_path("none.v2");
  ingest::IngestOptions opt;
  opt.relabel = ingest::RelabelMode::None;
  const auto rep = ingest::run_ingest(bin, snap, opt);
  (void)rep;
  expect_snapshot_equals(snap, graph::load_binary_edges(bin), /*seed=*/0);
}

TEST(Ingest, DegreeDescendingRelabelIsAnIsomorphism) {
  const auto raw = raw_rmat(8, 8, 31);
  const std::string bin = tmp_path("degdesc.bin");
  graph::save_binary_edges(raw, bin);

  const std::string snap = tmp_path("degdesc.v2");
  ingest::IngestOptions opt;
  opt.relabel = ingest::RelabelMode::DegreeDescending;
  opt.remove_degree_lt2 = false;  // keep degrees == the relabel key
  (void)ingest::run_ingest(bin, snap, opt);

  ingest::SnapshotReader reader(snap);
  const auto g = graph::CSRGraph::from_edges(reader.read_all());
  // New ids are assigned by descending degree, so the degree sequence in id
  // order is non-increasing...
  for (VertexId v = 1; v < g.num_vertices(); ++v)
    EXPECT_LE(g.degree(v), g.degree(v - 1)) << "vertex " << v;
  // ...and a relabel is an isomorphism: the triangle count is unchanged
  // against the un-relabeled clean of the same input.
  graph::EdgeList ref = graph::load_binary_edges(bin);
  graph::clean(ref, {.remove_degree_lt2 = false, .relabel_seed = 0});
  const auto ref_g = graph::CSRGraph::from_edges(ref);
  EXPECT_EQ(graph::reference_lcc(g).global_triangles,
            graph::reference_lcc(ref_g).global_triangles);
}

// ---------------------------------------------------------------------------
// Partition-sliced reads

TEST(Ingest, SliceEqualsInMemoryBuildForAllKindsAndRanks) {
  const auto raw = raw_rmat(9, 8, 17);
  const std::string bin = tmp_path("slices.bin");
  graph::save_binary_edges(raw, bin);

  for (std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
    const std::string snap =
        tmp_path("slices_r" + std::to_string(ranks) + ".v2");
    ingest::IngestOptions opt;
    opt.ranks = ranks;
    opt.relabel_seed = 9;
    (void)ingest::run_ingest(bin, snap, opt);

    ingest::SnapshotReader reader(snap);
    ASSERT_EQ(reader.ranks(), ranks);
    const auto g = graph::CSRGraph::from_edges(reader.read_all());
    for (const auto kind :
         {graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D,
          graph::PartitionKind::DegreeBalanced1D,
          graph::PartitionKind::Grid2D}) {
      const auto part = graph::make_partition(g, kind, ranks);
      for (std::uint32_t rank = 0; rank < ranks; ++rank) {
        // The in-memory reference: the column-restricted row slices
        // build_dist_graph derives from the global CSR.
        const auto [lo, hi] = part.col_block_range(
            part.col_blocks() > 1 ? part.grid_col(rank) : 0);
        std::vector<graph::EdgeIndex> want_off{0};
        std::vector<VertexId> want_adj;
        for (VertexId lv = 0; lv < part.part_size(rank); ++lv) {
          const auto nbrs = g.neighbors(part.global_id(rank, lv));
          const auto s = std::lower_bound(nbrs.begin(), nbrs.end(), lo);
          const auto e = std::lower_bound(s, nbrs.end(), hi);
          want_adj.insert(want_adj.end(), s, e);
          want_off.push_back(want_adj.size());
        }

        std::vector<graph::EdgeIndex> got_off;
        std::vector<VertexId> got_adj;
        reader.read_slice(part, rank, got_off, got_adj);
        EXPECT_TRUE(got_off == want_off)
            << graph::partition_kind_name(kind) << " rank " << rank << "/"
            << ranks << ": offsets differ";
        EXPECT_TRUE(got_adj == want_adj)
            << graph::partition_kind_name(kind) << " rank " << rank << "/"
            << ranks << ": adjacencies differ";
      }
    }
  }
}

TEST(Ingest, EngineResultsBitIdenticalViaSliceSource) {
  const auto raw = raw_rmat(8, 8, 23);
  const std::string bin = tmp_path("engine.bin");
  graph::save_binary_edges(raw, bin);
  const std::string snap = tmp_path("engine.v2");
  ingest::IngestOptions opt;
  opt.ranks = 8;
  opt.relabel_seed = 4;
  (void)ingest::run_ingest(bin, snap, opt);

  ingest::SnapshotReader reader(snap);
  const auto g = graph::CSRGraph::from_edges(reader.read_all());
  for (const auto kind :
       {graph::PartitionKind::Block1D, graph::PartitionKind::Cyclic1D,
        graph::PartitionKind::DegreeBalanced1D,
        graph::PartitionKind::Grid2D}) {
    core::EngineConfig mem_cfg;
    const auto mem = core::run_distributed_lcc(g, 8, mem_cfg, {}, kind);

    core::EngineConfig ooc_cfg;
    ooc_cfg.slice_source = &reader;
    const auto ooc = core::run_distributed_lcc(g, 8, ooc_cfg, {}, kind);

    EXPECT_EQ(ooc.global_triangles, mem.global_triangles)
        << graph::partition_kind_name(kind);
    EXPECT_TRUE(ooc.triangles == mem.triangles)
        << graph::partition_kind_name(kind);
    EXPECT_TRUE(ooc.lcc == mem.lcc) << graph::partition_kind_name(kind);

    // Both TC paths: the DODG ranks orient the snapshot's undirected
    // slices exactly as they orient the in-memory ones.
    for (const bool dodg : {false, true}) {
      const auto tc_mem =
          core::run_distributed_tc_result(g, 8, mem_cfg, {}, kind, dodg);
      const auto tc_ooc =
          core::run_distributed_tc_result(g, 8, ooc_cfg, {}, kind, dodg);
      EXPECT_EQ(tc_ooc.global_triangles, tc_mem.global_triangles)
          << graph::partition_kind_name(kind) << " dodg=" << dodg;
      EXPECT_TRUE(tc_ooc.triangles == tc_mem.triangles)
          << graph::partition_kind_name(kind) << " dodg=" << dodg;
      EXPECT_EQ(tc_ooc.run.makespan, tc_mem.run.makespan)
          << graph::partition_kind_name(kind) << " dodg=" << dodg;
      EXPECT_EQ(tc_mem.global_triangles, mem.global_triangles)
          << graph::partition_kind_name(kind) << " dodg=" << dodg;
    }
  }
}

// ---------------------------------------------------------------------------
// Spill path

TEST(Ingest, SpillPathProducesByteIdenticalSnapshot) {
  const auto raw = raw_rmat(10, 8, 41);
  const std::string text = tmp_path("spill.txt");
  graph::save_text_edges(raw, text);
  const auto input_bytes = std::filesystem::file_size(text);

  ingest::IngestOptions mem_opt;
  mem_opt.ranks = 4;
  const std::string snap_mem = tmp_path("spill_mem.v2");
  const auto mem_rep = ingest::run_ingest(text, snap_mem, mem_opt);
  EXPECT_EQ(mem_rep.spill_runs, 0u);

  ingest::IngestOptions spill_opt = mem_opt;
  spill_opt.mem_budget_bytes = 64 * 1024;  // far below the edge stream
  const std::string snap_spill = tmp_path("spill_disk.v2");
  const auto spill_rep = ingest::run_ingest(text, snap_spill, spill_opt);
  // The input (and the edge stream) genuinely exceed the memory budget,
  // and the spill path really ran.
  EXPECT_GT(input_bytes, spill_opt.mem_budget_bytes);
  EXPECT_GE(spill_rep.spill_runs, 2u);

  EXPECT_TRUE(read_file(snap_mem) == read_file(snap_spill))
      << "spill path changed the snapshot bytes";
}

// ---------------------------------------------------------------------------
// Corruption, truncation, and version back-compat

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto raw = raw_rmat(7, 6, 2);
    bin_ = tmp_path("corrupt_src.bin");
    graph::save_binary_edges(raw, bin_);
    snap_ = tmp_path("corrupt.v2");
    ingest::IngestOptions opt;
    opt.ranks = 4;
    (void)ingest::run_ingest(bin_, snap_, opt);
    bytes_ = read_file(snap_);
    ASSERT_GT(bytes_.size(), ingest::snapshot_v2::kHeaderBytes);
  }

  /// Write `bytes` patched at `offset` and return the temp path.
  std::string patched(std::size_t offset, unsigned char value) {
    std::string copy = bytes_;
    copy[offset] = static_cast<char>(value);
    const std::string path =
        tmp_path("patched_" + std::to_string(offset) + "_" +
                 std::to_string(value) + ".v2");
    write_file(path, copy);
    return path;
  }

  std::string bin_;
  std::string snap_;
  std::string bytes_;
};

TEST_F(SnapshotCorruption, HeaderFieldPatchesAreRejected) {
  namespace v2 = ingest::snapshot_v2;
  // Each patch flips one header field; the reader must refuse them all.
  const std::pair<std::size_t, unsigned char> patches[] = {
      {v2::kMagicOffset, 0x00},        // bad magic
      {v2::kVersionOffset, 3},         // unknown version
      {v2::kDirectednessOffset, 7},    // corrupt flag
      {v2::kNumVerticesOffset, 0xee},  // section offsets no longer line up
      {v2::kNumEdgesOffset, 0xee},     // ditto
      {v2::kRanksOffset, 0},           // zero ranks
      {v2::kKindCountOffset, 5},       // wrong kind count
      {v2::kEdgesOffsetOffset, 0xee},  // inconsistent layout
      {v2::kIndexOffsetOffset, 0xee},
      {v2::kFileBytesOffset, 0xee},    // declared size != actual
      {v2::kDegreeChecksumOffset,
       static_cast<unsigned char>(
           bytes_[v2::kDegreeChecksumOffset] ^ 0x1)},  // degree corruption
  };
  for (const auto& [offset, value] : patches) {
    EXPECT_THROW(ingest::SnapshotReader reader(patched(offset, value)),
                 std::runtime_error)
        << "header offset " << offset << " accepted";
  }
}

TEST_F(SnapshotCorruption, EdgePayloadCorruptionCaughtByReadAll) {
  namespace v2 = ingest::snapshot_v2;
  // A flipped edge byte passes the container checks (the edge checksum is
  // only verified against the payload on read)...
  ingest::SnapshotReader clean_reader(snap_);
  const std::size_t edge_byte =
      v2::kHeaderBytes +
      clean_reader.num_vertices() * sizeof(VertexId) /*degrees*/ + 1;
  const std::string path = patched(
      edge_byte, static_cast<unsigned char>(bytes_[edge_byte] ^ 0x4));
  ingest::SnapshotReader reader(path);
  EXPECT_THROW((void)reader.read_all(), std::runtime_error);

  // ...and a patched stored checksum is caught the same way.
  const std::string path2 = patched(
      v2::kEdgeChecksumOffset,
      static_cast<unsigned char>(bytes_[v2::kEdgeChecksumOffset] ^ 0x1));
  ingest::SnapshotReader reader2(path2);
  EXPECT_THROW((void)reader2.read_all(), std::runtime_error);
}

TEST_F(SnapshotCorruption, TruncationIsRejected) {
  for (const std::size_t keep :
       {std::size_t{10}, ingest::snapshot_v2::kHeaderBytes,
        bytes_.size() / 2, bytes_.size() - 1}) {
    const std::string path =
        tmp_path("trunc_" + std::to_string(keep) + ".v2");
    write_file(path, bytes_.substr(0, keep));
    EXPECT_THROW(ingest::SnapshotReader reader(path), std::runtime_error)
        << "kept " << keep << " of " << bytes_.size() << " bytes";
  }
}

TEST_F(SnapshotCorruption, SliceIndexCorruptionIsRejected) {
  // The slice index sits at the end of the file; stomp a byte in its
  // extent region (past the section tag) and the structural validation
  // must catch it (coverage, monotonicity, or range).
  bool threw = false;
  for (std::size_t back = 1; back <= 16 && !threw; ++back) {
    const std::size_t offset = bytes_.size() - back;
    const std::string path = patched(
        offset, static_cast<unsigned char>(bytes_[offset] ^ 0xff));
    try {
      ingest::SnapshotReader reader(path);
    } catch (const std::runtime_error&) {
      threw = true;
    }
  }
  EXPECT_TRUE(threw) << "no tail patch was caught";
}

TEST_F(SnapshotCorruption, VersionSniffingAndBackCompat) {
  // sniff: v2 yes; v1 binary and text no.
  EXPECT_TRUE(ingest::SnapshotReader::sniff(snap_));
  EXPECT_FALSE(ingest::SnapshotReader::sniff(bin_));
  const std::string text = tmp_path("sniff.txt");
  write_file(text, "0 1\n1 2\n");
  EXPECT_FALSE(ingest::SnapshotReader::sniff(text));

  // A v1 file handed to the v2 reader gets a pointed message.
  try {
    ingest::SnapshotReader reader(bin_);
    FAIL() << "v1 file accepted as v2 snapshot";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("v1"), std::string::npos);
  }

  // A v2 file handed to the v1 loader points at atlc_run --input.
  try {
    (void)graph::load_binary_edges(snap_);
    FAIL() << "v2 snapshot accepted as v1 edge list";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("atlc_run --input"),
              std::string::npos);
  }

  // v1 loading still works, with and without format sniffing.
  EXPECT_GT(graph::load_binary_edges(bin_).num_edges(), 0u);
  EXPECT_GT(
      graph::load_edges(bin_, Directedness::Undirected).num_edges(), 0u);

  // Re-ingesting a snapshot is refused.
  EXPECT_THROW(
      (void)ingest::run_ingest(snap_, tmp_path("twice.v2"), {}),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Overflow guard

TEST(LoadTextEdges, RejectsIdSpaceOverflow) {
  const std::string path = tmp_path("overflow.txt");
  write_file(path, "10 20\n30 40\n50 10\n");  // 5 distinct ids

  EXPECT_THROW(
      (void)graph::load_text_edges(path, Directedness::Undirected, 4),
      std::runtime_error);
  EXPECT_EQ(
      graph::load_text_edges(path, Directedness::Undirected, 5).num_vertices(),
      5u);

  ingest::IngestOptions opt;
  opt.max_vertices = 4;
  EXPECT_THROW(
      (void)ingest::run_ingest(path, tmp_path("overflow.v2"), opt),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// Report plumbing

TEST(Ingest, ReportCarriesThroughputAndFormatFields) {
  const auto raw = raw_rmat(8, 8, 55);
  const std::string bin = tmp_path("report.bin");
  graph::save_binary_edges(raw, bin);
  const std::string snap = tmp_path("report.v2");
  ingest::IngestOptions opt;
  opt.ranks = 4;
  const auto rep = ingest::run_ingest(bin, snap, opt);

  EXPECT_GT(rep.num_edges, 0u);
  EXPECT_GT(rep.num_vertices, 0u);
  EXPECT_GT(rep.peak_rss_bytes, 0u);
  EXPECT_EQ(rep.snapshot_bytes, std::filesystem::file_size(snap));
  EXPECT_GE(rep.total_seconds, 0.0);

  ingest::SnapshotReader reader(snap);
  EXPECT_EQ(rep.edge_checksum, reader.edge_checksum());
  EXPECT_EQ(rep.num_edges, reader.num_edges());
  namespace v2 = ingest::snapshot_v2;
  using graph::PartitionKind;
  // Extent totals surface per kind, and sorted-by-(u,v) edges give the
  // contiguous 1D kinds at most one extent per (rank, vertex-run).
  EXPECT_EQ(rep.extents[static_cast<int>(PartitionKind::Block1D)],
            reader.extents_total(PartitionKind::Block1D));
  EXPECT_LE(rep.extents[static_cast<int>(PartitionKind::Block1D)], 4u);
  EXPECT_GE(rep.extents[static_cast<int>(PartitionKind::Grid2D)],
            rep.extents[static_cast<int>(PartitionKind::Block1D)]);
  (void)v2::kKindCount;
}

}  // namespace
