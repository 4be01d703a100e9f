// Unit tests for the graph substrate: edge lists, CSR, cleaning, relabeling,
// generators, IO, partitioning, degree statistics and reference LCC/TC.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "atlc/core/engine_config.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/dodg.hpp"
#include "atlc/graph/edge_list.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/hub_replica.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/graph/relabel.hpp"
#include "atlc/ingest/pipeline.hpp"
#include "test_support.hpp"

namespace atlc::graph {
namespace {

using testsupport::complete_edges;
using testsupport::paper_example_edges;

EdgeList paper_example() { return paper_example_edges(); }
EdgeList complete(VertexId n) { return complete_edges(n); }

// ------------------------------------------------------------- EdgeList ---

TEST(EdgeList, SortAndDedupRemovesMultiEdges) {
  EdgeList e(3, {{0, 1}, {0, 1}, {1, 2}, {0, 1}}, Directedness::Directed);
  e.sort_and_dedup();
  EXPECT_EQ(e.num_edges(), 2u);
}

TEST(EdgeList, RemoveSelfLoops) {
  EdgeList e(3, {{0, 0}, {0, 1}, {2, 2}}, Directedness::Directed);
  e.remove_self_loops();
  EXPECT_EQ(e.num_edges(), 1u);
}

TEST(EdgeList, SymmetrizeAddsReverses) {
  EdgeList e(3, {{0, 1}, {1, 2}}, Directedness::Undirected);
  e.symmetrize();
  EXPECT_EQ(e.num_edges(), 4u);
  EXPECT_TRUE(e.is_symmetric());
}

TEST(EdgeList, SymmetrizeIdempotent) {
  EdgeList e(3, {{0, 1}, {1, 0}}, Directedness::Undirected);
  e.symmetrize();
  EXPECT_EQ(e.num_edges(), 2u);
}

TEST(EdgeList, SymmetrizeNoOpForDirected) {
  EdgeList e(3, {{0, 1}}, Directedness::Directed);
  e.symmetrize();
  EXPECT_EQ(e.num_edges(), 1u);
}

// ------------------------------------------------------------------ CSR ---

TEST(Csr, PaperFigure2Example) {
  // Fig. 2: node A of the Fig. 1 graph stores vertices 0..2 with
  // offsets [0,2,6] and adjacencies [1,2, 0,2,3,4, 0,1,4] (offset array in
  // the paper omits the trailing total; we store n+1 entries).
  EdgeList e(5, {}, Directedness::Directed);
  for (auto [u, v] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 3}, {1, 4}, {2, 0}, {2, 1},
           {2, 4}})
    e.add_edge(u, v);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_EQ(g.offsets()[0], 0u);
  EXPECT_EQ(g.offsets()[1], 2u);
  EXPECT_EQ(g.offsets()[2], 6u);
  EXPECT_EQ(g.offsets()[3], 9u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 4u);
  ASSERT_EQ(g.neighbors(1).size(), 4u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
  EXPECT_EQ(g.neighbors(1)[3], 4u);
}

TEST(Csr, AdjacencySortedAfterBuild) {
  EdgeList e(4, {{0, 3}, {0, 1}, {0, 2}, {2, 1}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_TRUE(g.adjacency_sorted_unique());
}

TEST(Csr, HasEdge) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 5));
}

TEST(Csr, InDegreesMatchOutForUndirected) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  const auto in = g.in_degrees();
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(in[v], g.degree(v)) << "vertex " << v;
}

TEST(Csr, CsrBytesAccountsBothArrays) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  EXPECT_EQ(g.csr_bytes(), (g.num_vertices() + 1) * sizeof(EdgeIndex) +
                               g.num_edges() * sizeof(VertexId));
}

TEST(Csr, FromRawValidates) {
  testsupport::use_threadsafe_death_tests();
  EXPECT_DEATH(
      (void)CSRGraph::from_raw(2, {0, 1}, {1, 0}, Directedness::Directed),
      "offsets");
}

TEST(Csr, EmptyGraph) {
  EdgeList e(0, {}, Directedness::Undirected);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

// ---------------------------------------------------------------- clean ---

TEST(Clean, RemovesIsolatedAndDegreeOneVertices) {
  // Vertex 3 is isolated; vertex 2 has degree 1 (cannot close a triangle).
  EdgeList e(4, {{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}, {2, 1}},
             Directedness::Undirected);
  EdgeList pendant(5, {}, Directedness::Undirected);
  pendant.add_edge(0, 1);
  pendant.add_edge(1, 0);
  pendant.add_edge(0, 2);
  pendant.add_edge(2, 0);
  pendant.add_edge(1, 2);
  pendant.add_edge(2, 1);
  pendant.add_edge(3, 0);
  pendant.add_edge(0, 3);  // vertex 3: degree 1; vertex 4: isolated
  const CleanReport rep = clean(pendant);
  EXPECT_EQ(rep.vertices_removed, 2u);
  EXPECT_EQ(pendant.num_vertices(), 3u);
  // Surviving ids must be compact and the triangle intact.
  const CSRGraph g = CSRGraph::from_edges(pendant);
  EXPECT_EQ(reference_lcc(g).global_triangles, 1u);
}

TEST(Clean, RecursiveRemovalReachesFixedPoint) {
  // Chain 0-1-2-3 plus triangle 3-4-5: single-pass removal drops 0
  // (degree 1), recursive must also drop 1 and 2.
  EdgeList e(6, {}, Directedness::Undirected);
  for (auto [u, v] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}})
    e.add_edge(u, v);
  e.symmetrize();
  CleanOptions opts;
  opts.recursive_degree_removal = true;
  const CleanReport rep = clean(e, opts);
  EXPECT_EQ(e.num_vertices(), 3u);
  EXPECT_GE(rep.degree_removal_rounds, 2u);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_EQ(reference_lcc(g).global_triangles, 1u);
}

TEST(Clean, CountsSelfLoopsAndMultiEdges) {
  EdgeList e(3, {{0, 0}, {0, 1}, {0, 1}, {1, 0}, {1, 2}, {2, 1}, {0, 2},
                 {2, 0}},
             Directedness::Undirected);
  const CleanReport rep = clean(e);
  EXPECT_EQ(rep.self_loops_removed, 1u);
  EXPECT_EQ(rep.multi_edges_removed, 1u);
}

TEST(Clean, PreservesTriangleCount) {
  auto e = generate_rmat({.scale = 8, .edge_factor = 8, .seed = 3});
  EdgeList copy = e;
  clean(copy);
  const auto before = reference_lcc(CSRGraph::from_edges([&] {
                        EdgeList x = e;
                        x.remove_self_loops();
                        x.sort_and_dedup();
                        return x;
                      }()))
                          .global_triangles;
  const auto after = reference_lcc(CSRGraph::from_edges(copy)).global_triangles;
  EXPECT_EQ(before, after);  // degree<2 vertices are in no triangle
}

// -------------------------------------------------------------- relabel ---

TEST(Relabel, PermutationIsBijective) {
  const auto perm = random_permutation(100, 42);
  std::set<VertexId> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Relabel, DeterministicPerSeed) {
  EXPECT_EQ(random_permutation(50, 7), random_permutation(50, 7));
  EXPECT_NE(random_permutation(50, 7), random_permutation(50, 8));
}

TEST(Relabel, PreservesTriangles) {
  auto e = generate_rmat({.scale = 7, .edge_factor = 8, .seed = 5});
  clean(e);
  const auto before = reference_lcc(CSRGraph::from_edges(e)).global_triangles;
  relabel_random(e, 99);
  const auto after = reference_lcc(CSRGraph::from_edges(e)).global_triangles;
  EXPECT_EQ(before, after);
}

// ----------------------------------------------------------- generators ---

TEST(Rmat, SizesFollowScaleAndEdgeFactor) {
  const auto e = generate_rmat(
      {.scale = 10, .edge_factor = 4, .seed = 1,
       .directedness = Directedness::Directed});
  EXPECT_EQ(e.num_vertices(), 1u << 10);
  EXPECT_EQ(e.num_edges(), (1u << 10) * 4u);
}

TEST(Rmat, DeterministicPerSeed) {
  const auto a = generate_rmat({.scale = 8, .edge_factor = 4, .seed = 9});
  const auto b = generate_rmat({.scale = 8, .edge_factor = 4, .seed = 9});
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(Rmat, UndirectedOutputIsSymmetric) {
  const auto e = generate_rmat({.scale = 7, .edge_factor = 4, .seed = 2});
  EXPECT_TRUE(e.is_symmetric());
}

TEST(Rmat, SkewedDegreesVsUniform) {
  auto rmat = generate_rmat({.scale = 10, .edge_factor = 8, .seed = 3});
  clean(rmat);
  auto uni = generate_uniform({.num_vertices = 1u << 10,
                               .num_edges = 8u << 10,
                               .seed = 3});
  clean(uni);
  const auto s_rmat = degree_stats(CSRGraph::from_edges(rmat));
  const auto s_uni = degree_stats(CSRGraph::from_edges(uni));
  // The R-MAT parameters of the paper produce a heavy-tailed distribution;
  // the uniform control does not (paper Fig. 4 upper-left).
  EXPECT_GT(s_rmat.gini, s_uni.gini + 0.1);
  EXPECT_GT(s_rmat.max, s_uni.max);
}

TEST(Rmat, LargeCsrAdjacencySortedUnique) {
  // Large enough that from_edges' per-row sort runs its OpenMP path; the
  // parallelization must preserve the sorted-unique adjacency invariant
  // every intersection kernel relies on.
  auto e = generate_rmat({.scale = 12, .edge_factor = 8, .seed = 6});
  clean(e, {.relabel_seed = 17});
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_TRUE(g.adjacency_sorted_unique());
  EXPECT_EQ(g.num_vertices(), e.num_vertices());
  EXPECT_EQ(g.num_edges(), e.num_edges());
}

TEST(Uniform, EdgeCountAndRange) {
  const auto e = generate_uniform({.num_vertices = 100,
                                   .num_edges = 500,
                                   .seed = 1,
                                   .directedness = Directedness::Directed});
  EXPECT_EQ(e.num_edges(), 500u);
  for (const Edge& ed : e.edges()) {
    EXPECT_LT(ed.u, 100u);
    EXPECT_LT(ed.v, 100u);
  }
}

TEST(Circles, ProducesClusteredSkewedGraph) {
  auto e = generate_circles({.num_vertices = 1024, .seed = 11});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  ASSERT_GT(g.num_vertices(), 500u);
  const auto ref = reference_lcc(g);
  // High clustering: mean LCC well above an ER graph of equal density.
  double mean_lcc = 0;
  for (double c : ref.lcc) mean_lcc += c;
  mean_lcc /= static_cast<double>(g.num_vertices());
  EXPECT_GT(mean_lcc, 0.15);
  // Skewed degrees (hub members exist).
  const auto stats = degree_stats(g);
  EXPECT_GT(static_cast<double>(stats.max), 4.0 * stats.mean);
}

// ------------------------------------------------------------------- IO ---

TEST(Io, TextRoundTrip) {
  auto e = generate_rmat({.scale = 6, .edge_factor = 4, .seed = 7});
  clean(e);
  const std::string path = ::testing::TempDir() + "atlc_text_edges.txt";
  save_text_edges(e, path);
  const EdgeList loaded = load_text_edges(path, Directedness::Undirected);
  // Vertex ids are compacted on load; triangle counts are invariant.
  EXPECT_EQ(reference_lcc(CSRGraph::from_edges(e)).global_triangles,
            reference_lcc(CSRGraph::from_edges(loaded)).global_triangles);
  std::remove(path.c_str());
}

TEST(Io, TextSkipsComments) {
  const std::string path = ::testing::TempDir() + "atlc_comments.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "# comment\n%% another\n0 1\n1 2\n2 0\n");
  std::fclose(f);
  const EdgeList e = load_text_edges(path, Directedness::Undirected);
  EXPECT_EQ(e.num_vertices(), 3u);
  EXPECT_EQ(reference_lcc(CSRGraph::from_edges(e)).global_triangles, 1u);
  std::remove(path.c_str());
}

TEST(Io, BinaryRoundTripExact) {
  auto e = generate_rmat({.scale = 6, .edge_factor = 4, .seed = 8,
                          .directedness = Directedness::Directed});
  const std::string path = ::testing::TempDir() + "atlc_bin_edges.bin";
  save_binary_edges(e, path);
  const EdgeList loaded = load_binary_edges(path);
  EXPECT_EQ(loaded.num_vertices(), e.num_vertices());
  EXPECT_EQ(loaded.edges(), e.edges());
  EXPECT_EQ(loaded.directedness(), Directedness::Directed);
  std::remove(path.c_str());
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW((void)load_text_edges("/nonexistent/path.txt",
                                     Directedness::Undirected),
               std::runtime_error);
  EXPECT_THROW((void)load_binary_edges("/nonexistent/path.bin"),
               std::runtime_error);
}

TEST(Io, TextToBinaryRoundTripPreservesTriangles) {
  // The --convert workflow: text load -> binary snapshot -> binary load
  // must agree with the text path on everything that matters downstream.
  auto e = generate_rmat({.scale = 6, .edge_factor = 6, .seed = 9});
  clean(e);
  const std::string text_path = ::testing::TempDir() + "atlc_rt.txt";
  const std::string bin_path = ::testing::TempDir() + "atlc_rt.bin";
  save_text_edges(e, text_path);
  const EdgeList from_text = load_edges(text_path, Directedness::Undirected);
  save_binary_edges(from_text, bin_path);
  const EdgeList from_bin = load_edges(bin_path, Directedness::Undirected);
  EXPECT_EQ(from_bin.num_vertices(), from_text.num_vertices());
  EXPECT_EQ(from_bin.edges(), from_text.edges());
  EXPECT_EQ(reference_lcc(CSRGraph::from_edges(from_bin)).global_triangles,
            reference_lcc(CSRGraph::from_edges(e)).global_triangles);
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

using Loader = std::function<void(const std::string&)>;

/// The two readers of a v1 file: the in-memory loader and the ingest
/// pipeline.
void load_v1(const std::string& path) { (void)load_binary_edges(path); }
void ingest_v1(const std::string& path) {
  (void)ingest::run_ingest(path, path + ".v2", {});
}

/// Expect `load(path)` to throw with `needle` in the message; returns the
/// message.
std::string expect_binary_load_error(const Loader& load,
                                     const std::string& path,
                                     const std::string& needle) {
  try {
    load(path);
    ADD_FAILURE() << "no exception for " << path << " (wanted '" << needle
                  << "')";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << "message was: " << err.what();
    return err.what();
  }
  return {};
}

class IoCorruption : public ::testing::Test {
 protected:
  /// A small valid binary edge list to corrupt.
  void SetUp() override {
    auto e = generate_rmat({.scale = 5, .edge_factor = 4, .seed = 10});
    clean(e);
    path_ = ::testing::TempDir() + "atlc_corrupt.bin";
    save_binary_edges(e, path_);
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    blob_.resize(static_cast<std::size_t>(std::ftell(f)));
    std::rewind(f);
    ASSERT_EQ(std::fread(blob_.data(), 1, blob_.size(), f), blob_.size());
    std::fclose(f);
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".v2").c_str());
  }

  void write_blob(const std::vector<unsigned char>& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty())
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  /// load_binary_edges and run_ingest reject the file with one message.
  void expect_rejected(const std::string& needle) {
    EXPECT_EQ(expect_binary_load_error(load_v1, path_, needle),
              expect_binary_load_error(ingest_v1, path_, needle));
  }

  std::string path_;
  std::vector<unsigned char> blob_;
};

TEST_F(IoCorruption, TruncatedHeaderThrows) {
  write_blob({blob_.begin(), blob_.begin() + 10});
  expect_rejected("truncated header");
}

TEST_F(IoCorruption, TruncatedPayloadThrows) {
  // Drop the last 6 bytes: the declared count no longer matches the size.
  write_blob({blob_.begin(), blob_.end() - 6});
  expect_rejected("truncated or corrupt");
}

TEST_F(IoCorruption, TrailingGarbageThrows) {
  auto bytes = blob_;
  bytes.insert(bytes.end(), {0xde, 0xad, 0xbe, 0xef});
  write_blob(bytes);
  expect_rejected("truncated or corrupt");
}

TEST_F(IoCorruption, BadMagicThrows) {
  auto bytes = blob_;
  bytes[0] ^= 0xff;
  write_blob(bytes);
  // Without the magic the file is text to every sniffing reader (ingest
  // included); only the explicit v1 loader can call the magic bad.
  (void)expect_binary_load_error(load_v1, path_, "bad magic");
}

TEST_F(IoCorruption, UnsupportedVersionThrows) {
  auto bytes = blob_;
  bytes[4] = 0x7f;  // version word (little-endian low byte)
  write_blob(bytes);
  expect_rejected("unsupported binary edge-list version");
}

TEST_F(IoCorruption, CorruptDirectednessThrows) {
  auto bytes = blob_;
  bytes[8] = 0x02;  // directedness word: only 0 and 1 are valid
  write_blob(bytes);
  expect_rejected("corrupt directedness flag");
}

TEST_F(IoCorruption, HugeEdgeCountThrows) {
  // A bare header declaring 2^61 edges: 24 + 2^61 * 8 wraps to 24 bytes,
  // the file's true size.
  std::vector<unsigned char> bytes(blob_.begin(), blob_.begin() + 24);
  for (std::size_t i = 16; i < 24; ++i) bytes[i] = 0;  // edge count word
  bytes[23] = 0x20;  // its most significant byte (little-endian): 2^61
  write_blob(bytes);
  expect_rejected("truncated or corrupt");
}

TEST_F(IoCorruption, OutOfRangeEndpointThrows) {
  auto bytes = blob_;
  // First payload word (u of edge 0) -> a vertex far beyond n.
  const std::size_t payload = 4 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
  bytes[payload + 0] = 0xff;
  bytes[payload + 1] = 0xff;
  bytes[payload + 2] = 0xff;
  bytes[payload + 3] = 0xff;
  write_blob(bytes);
  expect_rejected("endpoint out of range");
}

TEST(Io, LoadEdgesSniffsFormat) {
  // A text file whose first bytes are digits must go down the text path;
  // a binary file must go down the validating binary path.
  const std::string text_path = ::testing::TempDir() + "atlc_sniff.txt";
  std::FILE* f = std::fopen(text_path.c_str(), "w");
  std::fprintf(f, "0 1\n1 2\n2 0\n");
  std::fclose(f);
  const EdgeList t = load_edges(text_path, Directedness::Undirected);
  EXPECT_EQ(reference_lcc(CSRGraph::from_edges(t)).global_triangles, 1u);
  std::remove(text_path.c_str());
}

// ---------------------------------------------------------- text reader ---

/// Write `content` to `name` under the test temp dir; returns the path.
std::string write_temp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return path;
  EXPECT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  std::fclose(f);
  return path;
}

TEST(Io, LongCommentLineIsOneLine) {
  // A '#' line longer than any fixed line buffer must not leak its tail
  // ("777 888") into the edge list.
  const std::string path = write_temp(
      "atlc_long_comment.txt", "# SNAP header, long:" +
                                   std::string(234, ' ') +
                                   "777 888\n1 2\n2 3\n");
  const EdgeList e = load_text_edges(path, Directedness::Directed);
  EXPECT_EQ(e.num_vertices(), 3u);
  EXPECT_EQ(e.num_edges(), 2u);
  std::remove(path.c_str());
}

TEST(ChunkReader, StitchesChunksToLineBoundaries) {
  const std::string content =
      "# header\n0 1\n12 345\nlonger line with words\n6 7\n";
  const std::string path = write_temp("atlc_stitch.txt", content);

  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{4096}}) {
    ChunkReader reader(path, chunk);
    EXPECT_EQ(reader.file_bytes(), content.size());
    std::string concat;
    TextChunk c;
    while (reader.next(c)) {
      ASSERT_FALSE(c.data.empty());
      EXPECT_EQ(c.file_offset, concat.size());
      EXPECT_EQ(c.data.back(), '\n') << "chunk size " << chunk;
      concat += c.data;
    }
    EXPECT_EQ(concat, content) << "chunk size " << chunk;
    EXPECT_EQ(reader.bytes_read(), content.size());
  }
  std::remove(path.c_str());
}

TEST(ChunkReader, GrowsWindowForOversizedLines) {
  std::string content = "1 2\n";
  content += std::string(300, 'x');  // one 300-byte junk line
  content += "\n3 4\n";
  const std::string path = write_temp("atlc_oversize.txt", content);

  ChunkReader reader(path, 8);
  std::string concat;
  TextChunk c;
  while (reader.next(c)) concat += c.data;
  EXPECT_EQ(concat, content);
  std::remove(path.c_str());
}

TEST(ChunkReader, FinalLineWithoutNewline) {
  const std::string content = "0 1\n2 3";  // no trailing newline
  const std::string path = write_temp("atlc_nonl.txt", content);

  ChunkReader reader(path, 4);
  std::string concat;
  TextChunk c;
  while (reader.next(c)) concat += c.data;
  EXPECT_EQ(concat, content);
  std::remove(path.c_str());
}

TEST(ParseTextChunk, MirrorsLegacyScanfSemantics) {
  const std::string text =
      "# comment\n"
      "% comment\n"
      "\n"
      "1 2\n"
      "  3\t 4 trailing junk\n"
      "+5 6\n"
      "-1 7\n"           // strtoull wraps negatives
      "-99999999999999999999 5\n"  // ...but saturates on overflow
      "no numbers\n"
      "8\n"              // only one integer: skipped
      "9 10";            // final line without newline
  std::vector<RawPair> pairs;
  const std::size_t lines = parse_text_chunk(text, pairs);
  EXPECT_EQ(lines, 11u);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0].a, 1u);
  EXPECT_EQ(pairs[0].b, 2u);
  EXPECT_EQ(pairs[1].a, 3u);
  EXPECT_EQ(pairs[1].b, 4u);
  EXPECT_EQ(pairs[2].a, 5u);
  EXPECT_EQ(pairs[2].b, 6u);
  EXPECT_EQ(pairs[3].a, ~std::uint64_t{0});
  EXPECT_EQ(pairs[3].b, 7u);
  EXPECT_EQ(pairs[4].a, ~std::uint64_t{0});
  EXPECT_EQ(pairs[4].b, 5u);
  EXPECT_EQ(pairs[5].a, 9u);
  EXPECT_EQ(pairs[5].b, 10u);
}

using PairList = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// The reference SNAP line grammar: one sscanf("%llu %llu") per line, as
/// the library's loader once did. Counts the lines it sees.
PairList sscanf_oracle(const std::string& text, std::size_t& lines) {
  PairList out;
  lines = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lines;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    unsigned long long a = 0, b = 0;
    if (std::sscanf(line.c_str(), "%llu %llu", &a, &b) == 2)
      out.emplace_back(a, b);
  }
  return out;
}

/// Random SNAP-ish text: lines assembled from signs, every whitespace
/// byte, comment markers, overflowing digit runs and trailing junk; the
/// final newline is sometimes missing.
std::string random_snap_text(std::mt19937_64& rng, int lines) {
  const auto pick = [&](std::initializer_list<const char*> pieces) {
    return std::string(pieces.begin()[rng() % pieces.size()]);
  };
  const auto digits = [&] {
    // 1..24 digits: runs past 20 overflow uint64.
    std::string d(1 + rng() % (rng() % 4 == 0 ? 24 : 6), '0');
    for (char& c : d) c = static_cast<char>('0' + rng() % 10);
    return d;
  };
  const auto ws = [&] {
    std::string w;
    for (std::uint64_t k = rng() % 3; k > 0; --k)
      w += pick({" ", "\t", "\v", "\f", "\r", " "});
    return w;
  };
  const auto number = [&] {
    return pick({"", "", "", "+", "-"}) + digits();
  };
  std::string text;
  for (int i = 0; i < lines; ++i) {
    std::string line = pick({"", "", "", "", "", "#", "%"}) + ws();
    if (rng() % 16 != 0) line += number();
    line += rng() % 8 == 0 ? pick({"", "x", "-", "+"}) : " " + ws();
    if (rng() % 16 != 0) line += number();
    line += pick({"", "", "", "\r", " junk", "x1", " 7 8", "\t\t"});
    text += line;
    if (i + 1 < lines || rng() % 2 == 0) text += '\n';
  }
  return text;
}

TEST(ParseTextChunk, MatchesSscanfOracleOnRandomLines) {
  for (std::uint64_t seed : {1u, 2u, 3u, 20251022u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const std::string text = random_snap_text(rng, 1500);
    std::size_t want_lines = 0;
    const PairList want = sscanf_oracle(text, want_lines);
    ASSERT_GT(want.size(), 100u);  // the generator must produce real edges
    const std::string path = write_temp("atlc_oracle.txt", text);

    // First-appearance compaction of the oracle's pairs: the edges every
    // reader of this file must produce.
    std::unordered_map<std::uint64_t, VertexId> ids;
    std::vector<Edge> want_edges;
    const auto id = [&](std::uint64_t raw) {
      return ids.try_emplace(raw, static_cast<VertexId>(ids.size()))
          .first->second;
    };
    for (const auto& [a, b] : want) want_edges.push_back(Edge{id(a), id(b)});

    for (std::size_t window : {std::size_t{1}, std::size_t{7},
                               std::size_t{64}, std::size_t{4096},
                               std::size_t{1} << 20}) {
      SCOPED_TRACE("window " + std::to_string(window));
      ChunkReader reader(path, window);
      TextChunk chunk;
      std::vector<RawPair> raw;
      std::size_t lines = 0;
      while (reader.next(chunk)) lines += parse_text_chunk(chunk.data, raw);
      PairList got;
      for (const RawPair& p : raw) got.emplace_back(p.a, p.b);
      EXPECT_EQ(lines, want_lines);
      EXPECT_TRUE(got == want);

      TextEdgeReader edges_reader(path, window, 0xffffffffull,
                                  window % 2 == 0 ? 3 : 1);
      std::vector<Edge> edges;
      while (edges_reader.next(edges)) {
      }
      EXPECT_TRUE(edges == want_edges);
      EXPECT_EQ(edges_reader.lines(), want_lines);
      EXPECT_EQ(edges_reader.num_vertices(), ids.size());
    }
    const EdgeList loaded = load_text_edges(path, Directedness::Directed);
    EXPECT_TRUE(loaded.edges() == want_edges);
    std::remove(path.c_str());
  }
}

// ------------------------------------------------------------ partition ---

class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<int, int, PartitionKind>> {};

TEST_P(PartitionProperty, CoversAllVerticesDisjointly) {
  const auto [n, p, kind] = GetParam();
  const Partition part(kind, static_cast<VertexId>(n),
                       static_cast<std::uint32_t>(p));
  std::vector<int> owner_count(n, 0);
  VertexId total = 0;
  for (std::uint32_t r = 0; r < part.num_ranks(); ++r) {
    total += part.part_size(r);
    for (VertexId l = 0; l < part.part_size(r); ++l) {
      const VertexId v = part.global_id(r, l);
      ASSERT_LT(v, static_cast<VertexId>(n));
      ++owner_count[v];
      EXPECT_EQ(part.owner(v), r);
      EXPECT_EQ(part.local_index(v), l);
    }
  }
  EXPECT_EQ(total, static_cast<VertexId>(n));
  for (int c : owner_count) EXPECT_EQ(c, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionProperty,
    ::testing::Combine(::testing::Values(1, 7, 64, 100, 1023),
                       ::testing::Values(1, 2, 5, 8, 16),
                       ::testing::Values(PartitionKind::Block1D,
                                         PartitionKind::Cyclic1D)));

TEST(Partition, BlockSizesDifferByAtMostOne) {
  const Partition part(PartitionKind::Block1D, 10, 4);
  VertexId mn = 10, mx = 0;
  for (std::uint32_t r = 0; r < 4; ++r) {
    mn = std::min(mn, part.part_size(r));
    mx = std::max(mx, part.part_size(r));
  }
  EXPECT_LE(mx - mn, 1u);
}

TEST(Partition, CyclicSpreadsConsecutiveVertices) {
  const Partition part(PartitionKind::Cyclic1D, 100, 4);
  EXPECT_EQ(part.owner(0), 0u);
  EXPECT_EQ(part.owner(1), 1u);
  EXPECT_EQ(part.owner(4), 0u);
}

// ------------------------------------------------- degree-balanced cuts ---

/// Owner/local/global round trip + disjoint coverage, the same property
/// PartitionProperty asserts for the closed-form kinds.
void expect_partition_consistent(const Partition& part) {
  const VertexId n = part.num_vertices();
  std::vector<int> owner_count(n, 0);
  VertexId total = 0;
  for (std::uint32_t r = 0; r < part.num_ranks(); ++r) {
    total += part.part_size(r);
    for (VertexId l = 0; l < part.part_size(r); ++l) {
      const VertexId v = part.global_id(r, l);
      ASSERT_LT(v, n);
      ++owner_count[v];
      ASSERT_EQ(part.owner(v), r) << "vertex " << v;
      ASSERT_EQ(part.local_index(v), l) << "vertex " << v;
    }
  }
  EXPECT_EQ(total, n);
  for (int c : owner_count) EXPECT_EQ(c, 1);
}

TEST(DegreeBalanced, RoundTripOnSkewedSequence) {
  // One huge hub, a mid tier, and a long light tail.
  std::vector<std::uint64_t> w = {5000, 3, 40, 1, 900, 2, 2, 60, 1, 1,
                                  700,  4, 4,  4, 4,   8, 8, 1,  1, 1};
  for (const std::uint32_t p : {1u, 2u, 3u, 5u, 8u}) {
    const Partition part = Partition::degree_balanced(w, p);
    EXPECT_EQ(part.kind(), PartitionKind::DegreeBalanced1D);
    expect_partition_consistent(part);
  }
}

TEST(DegreeBalanced, PrefixCutBoundsPerRankWeight) {
  // Greedy ceil re-quota guarantee: every rank's owned weight stays below
  // ceil(total/p) + max single weight (a rank overshoots its quota by at
  // most one vertex).
  std::vector<std::uint64_t> w;
  std::uint64_t total = 0, wmax = 0;
  for (int i = 0; i < 257; ++i) {
    const std::uint64_t d = (i % 61 == 0) ? 1000 + i : 1 + (i % 7);
    w.push_back(d);
    total += d;
    wmax = std::max(wmax, d);
  }
  for (const std::uint32_t p : {2u, 4u, 16u}) {
    const Partition part = Partition::degree_balanced(w, p);
    const std::uint64_t bound = (total + p - 1) / p + wmax;
    for (std::uint32_t r = 0; r < p; ++r) {
      std::uint64_t owned = 0;
      for (VertexId l = 0; l < part.part_size(r); ++l)
        owned += w[part.global_id(r, l)];
      EXPECT_LT(owned, bound) << "rank " << r << " of " << p;
    }
  }
}

TEST(DegreeBalanced, HeavyHubGetsItsOwnRank) {
  // The hub alone exceeds the fair share, so the greedy cut isolates it.
  std::vector<std::uint64_t> w(101, 1);
  w[0] = 1000;
  const Partition part = Partition::degree_balanced(w, 4);
  EXPECT_EQ(part.part_size(0), 1u);
  EXPECT_EQ(part.owner(0), 0u);
  expect_partition_consistent(part);
}

TEST(DegreeBalanced, MorePartsThanVertices) {
  const std::vector<std::uint64_t> w = {7, 3, 9};
  const Partition part = Partition::degree_balanced(w, 8);
  expect_partition_consistent(part);
  VertexId nonempty = 0;
  for (std::uint32_t r = 0; r < 8; ++r) nonempty += part.part_size(r) > 0;
  EXPECT_LE(nonempty, 3u);
}

TEST(DegreeBalanced, AllEqualDegreesMatchBlock1D) {
  for (const VertexId n : {1u, 7u, 10u, 64u, 100u, 1023u}) {
    for (const std::uint32_t p : {1u, 2u, 4u, 5u, 16u}) {
      for (const std::uint64_t d : {0u, 1u, 3u}) {
        const std::vector<std::uint64_t> w(n, d);
        const Partition deg = Partition::degree_balanced(w, p);
        const Partition block(PartitionKind::Block1D, n, p);
        for (std::uint32_t r = 0; r < p; ++r)
          ASSERT_EQ(deg.part_size(r), block.part_size(r))
              << "n=" << n << " p=" << p << " d=" << d << " rank " << r;
        for (VertexId v = 0; v < n; ++v) {
          ASSERT_EQ(deg.owner(v), block.owner(v)) << "vertex " << v;
          ASSERT_EQ(deg.local_index(v), block.local_index(v));
        }
      }
    }
  }
}

TEST(DegreeBalanced, VertexIdOverloadMatchesWeights) {
  const std::vector<VertexId> deg = {4, 4, 1, 9, 2, 2, 8};
  const std::vector<std::uint64_t> wide(deg.begin(), deg.end());
  const Partition a = Partition::degree_balanced(
      std::span<const VertexId>(deg), 3);
  const Partition b = Partition::degree_balanced(
      std::span<const std::uint64_t>(wide), 3);
  for (VertexId v = 0; v < 7; ++v) EXPECT_EQ(a.owner(v), b.owner(v));
}

TEST(DegreeBalanced, MakePartitionBalancesEdgeWork) {
  // make_partition weights each local edge by its endpoint degrees; on a
  // skewed graph the resulting per-rank work spread must beat Block1D's.
  auto e = generate_rmat({.scale = 10, .edge_factor = 8, .seed = 12});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  const Partition part = make_partition(g, PartitionKind::DegreeBalanced1D, 8);
  EXPECT_EQ(part.kind(), PartitionKind::DegreeBalanced1D);
  expect_partition_consistent(part);

  const auto work_spread = [&](const Partition& p) {
    std::uint64_t mx = 0, total = 0;
    for (std::uint32_t r = 0; r < p.num_ranks(); ++r) {
      std::uint64_t owned = 0;
      for (VertexId l = 0; l < p.part_size(r); ++l) {
        const VertexId v = p.global_id(r, l);
        for (const VertexId j : g.neighbors(v)) owned += g.degree(v) + g.degree(j);
      }
      mx = std::max(mx, owned);
      total += owned;
    }
    return static_cast<double>(mx) * static_cast<double>(p.num_ranks()) /
           static_cast<double>(total);
  };
  const Partition block(PartitionKind::Block1D, g.num_vertices(), 8);
  EXPECT_LT(work_spread(part), work_spread(block));
  EXPECT_LT(work_spread(part), 1.2);  // near-balanced in the cut's own metric
}

TEST(Partition, DegreeBalancedKindRejectedByPlainConstructor) {
  testsupport::use_threadsafe_death_tests();
  EXPECT_DEATH(Partition(PartitionKind::DegreeBalanced1D, 10, 2),
               "degree_balanced");
}

TEST(Partition, KindNames) {
  EXPECT_STREQ(partition_kind_name(PartitionKind::Block1D), "block1d");
  EXPECT_STREQ(partition_kind_name(PartitionKind::Cyclic1D), "cyclic1d");
  EXPECT_STREQ(partition_kind_name(PartitionKind::DegreeBalanced1D),
               "degree1d");
  EXPECT_STREQ(partition_kind_name(PartitionKind::Grid2D), "grid2d");

  // parse_partition_kind inverts the names and accepts the CLI aliases.
  for (const PartitionKind kind :
       {PartitionKind::Block1D, PartitionKind::Cyclic1D,
        PartitionKind::DegreeBalanced1D, PartitionKind::Grid2D})
    EXPECT_EQ(parse_partition_kind(partition_kind_name(kind)), kind);
  EXPECT_EQ(parse_partition_kind("block"), PartitionKind::Block1D);
  EXPECT_EQ(parse_partition_kind("cyclic"), PartitionKind::Cyclic1D);
  for (const char* bad : {"", "grid", "Block1D", "degree", "unknown"})
    EXPECT_EQ(parse_partition_kind(bad), std::nullopt) << bad;
}

TEST(Partition, DegreeBalancedOwnerAtPrefixSumTies) {
  // The O(log p) upper_bound lookup must resolve vertices sitting EXACTLY
  // on a cut to the right-hand rank, including through runs of empty ranks
  // (cuts_[r] == cuts_[r+1]) that a naive lower_bound would land inside.
  {
    // All-equal weights: every cut lands exactly on a prefix-sum tie.
    const std::vector<std::uint64_t> w(8, 2);
    const Partition part = Partition::degree_balanced(w, 4);
    for (std::uint32_t r = 0; r < 4; ++r) {
      EXPECT_EQ(part.owner(2 * r), r) << "first vertex of rank " << r;
      EXPECT_EQ(part.owner(2 * r + 1), r) << "last vertex of rank " << r;
    }
  }
  {
    // A hub exceeding the total fair share empties the tail ranks; the
    // boundary vertex after the hub must skip over none of its own rank
    // and the last vertices must not land in the empty ranks.
    const std::vector<std::uint64_t> w = {100, 1, 1};
    const Partition part = Partition::degree_balanced(w, 4);
    expect_partition_consistent(part);
    EXPECT_EQ(part.owner(0), 0u);
    EXPECT_EQ(part.owner(1), part.owner(1));  // resolves without aborting
    for (std::uint32_t r = 0; r < 4; ++r)
      for (VertexId l = 0; l < part.part_size(r); ++l)
        EXPECT_EQ(part.owner(part.global_id(r, l)), r);
  }
  {
    // Zero-weight run straddling a cut: the tie vertex belongs to the rank
    // whose range STARTS there (upper_bound semantics).
    const std::vector<std::uint64_t> w = {1, 0, 0, 1};
    const Partition part = Partition::degree_balanced(w, 2);
    expect_partition_consistent(part);
    EXPECT_EQ(part.owner(0), 0u);
    EXPECT_EQ(part.owner(3), 1u);
  }
}

// ---------------------------------------------------------------- grid2d ---

TEST(Grid2D, ShapeIsLargestDivisorBelowSqrt) {
  const std::pair<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>
      expected[] = {{1, {1, 1}}, {2, {1, 2}},  {4, {2, 2}},  {6, {2, 3}},
                    {7, {1, 7}}, {8, {2, 4}},  {12, {3, 4}}, {16, {4, 4}},
                    {18, {3, 6}}, {64, {8, 8}}};
  for (const auto& [p, shape] : expected) {
    const Partition part(PartitionKind::Grid2D, 100, p);
    EXPECT_EQ(part.grid_rows(), shape.first) << "p=" << p;
    EXPECT_EQ(part.grid_cols(), shape.second) << "p=" << p;
    EXPECT_EQ(part.grid_rows() * part.grid_cols(), p);
    EXPECT_EQ(part.col_blocks(), part.grid_cols());
  }
}

/// Grid2D invariants (the 2D analogue of expect_partition_consistent, which
/// cannot apply: every rank of a grid row reports the row block's size, so
/// Σ part_size = pc * n by design).
void expect_grid_consistent(const Partition& part) {
  const VertexId n = part.num_vertices();
  const std::uint32_t pr = part.grid_rows();
  const std::uint32_t pc = part.grid_cols();
  ASSERT_EQ(pr * pc, part.num_ranks());

  // Column blocks tile [0, n) contiguously and col_block_of inverts them.
  VertexId covered = 0;
  for (std::uint32_t b = 0; b < part.col_blocks(); ++b) {
    const auto [lo, hi] = part.col_block_range(b);
    ASSERT_EQ(lo, covered);
    ASSERT_LE(hi, n);
    for (VertexId v = lo; v < hi; ++v)
      ASSERT_EQ(part.col_block_of(v), b) << "vertex " << v;
    covered = hi;
  }
  ASSERT_EQ(covered, n);

  for (VertexId v = 0; v < n; ++v) {
    // The home rank is the (row block, column block) diagonal cell, and the
    // owner/local/global round trip holds through it.
    const std::uint32_t home = part.owner(v);
    ASSERT_EQ(part.grid_col(home), part.col_block_of(v));
    ASSERT_EQ(part.global_id(home, part.local_index(v)), v);
    // Every segment of v's row lives in v's grid row, one rank per column.
    for (std::uint32_t b = 0; b < part.col_blocks(); ++b) {
      const std::uint32_t so = part.segment_owner(v, b);
      ASSERT_EQ(part.grid_row(so), part.grid_row(home));
      ASSERT_EQ(part.grid_col(so), b);
      // All ranks of the grid row agree on v's slot.
      ASSERT_EQ(part.global_id(so, part.local_index(v)), v);
    }
  }

  // Ranks of one grid row report identical sizes; rows tile [0, n).
  VertexId row_total = 0;
  for (std::uint32_t r = 0; r < pr; ++r) {
    const VertexId sz = part.part_size(r * pc);
    for (std::uint32_t c = 1; c < pc; ++c)
      ASSERT_EQ(part.part_size(r * pc + c), sz);
    ASSERT_EQ(part.block_begin(r * pc), row_total);
    row_total += sz;
  }
  ASSERT_EQ(row_total, n);
}

TEST(Grid2D, PartitionConsistentAcrossShapes) {
  for (const VertexId n : {1u, 6u, 7u, 64u, 100u, 1023u})
    for (const std::uint32_t p : {1u, 2u, 4u, 6u, 7u, 8u, 12u, 16u}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " p=" << p);
      expect_grid_consistent(Partition(PartitionKind::Grid2D, n, p));
    }
}

TEST(Grid2D, EdgeOwnersTileTheAdjacencyMatrix) {
  // Every (u, v) pair belongs to exactly one rank: the (row block of u,
  // column block of v) grid cell — the edge-block ownership that lets each
  // rank store only its segment of every local row.
  const Partition part(PartitionKind::Grid2D, 20, 6);  // 2x3 grid
  for (VertexId u = 0; u < 20; ++u)
    for (VertexId v = 0; v < 20; ++v) {
      const std::uint32_t r = part.edge_owner(u, v);
      EXPECT_EQ(part.grid_row(r), part.grid_row(part.owner(u)));
      EXPECT_EQ(part.grid_col(r), part.col_block_of(v));
    }
}

// ------------------------------------------------ degenerate shapes (all) ---

TEST(Partition, DegenerateShapesAllKinds) {
  const auto check = [](const CSRGraph& g, std::uint32_t p) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << g.num_vertices() << " p=" << p);
    for (const PartitionKind kind :
         {PartitionKind::Block1D, PartitionKind::Cyclic1D,
          PartitionKind::DegreeBalanced1D, PartitionKind::Grid2D}) {
      SCOPED_TRACE(partition_kind_name(kind));
      const Partition part = make_partition(g, kind, p);
      EXPECT_EQ(part.kind(), kind);
      EXPECT_EQ(part.num_vertices(), g.num_vertices());
      if (kind == PartitionKind::Grid2D)
        expect_grid_consistent(part);
      else
        expect_partition_consistent(part);
    }
  };

  // Empty graph: no vertices at all; every rank must come out empty.
  check(CSRGraph::from_edges(EdgeList(0, {}, Directedness::Undirected)), 4);
  // Fewer vertices than ranks (and than grid columns).
  check(CSRGraph::from_edges(EdgeList(3, {}, Directedness::Undirected)), 8);
  // Rank counts that are not perfect squares (rectangular + prime grids).
  {
    auto e = generate_rmat({.scale = 6, .edge_factor = 4, .seed = 5});
    clean(e);
    const CSRGraph g = CSRGraph::from_edges(e);
    for (const std::uint32_t p : {2u, 6u, 7u, 12u}) check(g, p);
  }
  // Single-vertex star: one hub owns every edge endpoint.
  {
    EdgeList e(9, {}, Directedness::Undirected);
    for (VertexId leaf = 1; leaf < 9; ++leaf) e.add_edge(0, leaf);
    e.symmetrize();
    check(CSRGraph::from_edges(e), 4);
  }
  // Full clique: perfectly uniform degrees.
  check(CSRGraph::from_edges(testsupport::complete_edges(8)), 4);
}

// ------------------------------------------------------------ hub replica ---

TEST(HubReplica, SelectsTopDegreeDeterministically) {
  auto e = generate_rmat({.scale = 9, .edge_factor = 8, .seed = 13});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  const HubReplica h = HubReplica::build(g, 0.02);
  const auto expected = static_cast<std::size_t>(
      std::ceil(0.02 * static_cast<double>(g.num_vertices())));
  ASSERT_EQ(h.num_hubs(), expected);
  // The pick is exactly the top-k of the (degree desc, id asc) order, and
  // every replicated row mirrors the CSR verbatim.
  const auto order = vertices_by_degree_desc(g);
  std::set<VertexId> want(order.begin(),
                          order.begin() + static_cast<long>(expected));
  for (const VertexId v : h.hub_ids()) {
    EXPECT_TRUE(want.contains(v)) << "vertex " << v;
    const auto row = h.neighbors_at(h.find(v));
    const auto ref = g.neighbors(v);
    ASSERT_EQ(row.size(), ref.size());
    for (std::size_t i = 0; i < row.size(); ++i) ASSERT_EQ(row[i], ref[i]);
  }
  EXPECT_EQ(h.find(order.back()), HubReplica::npos);  // lightest vertex
}

TEST(HubReplica, ZeroFractionIsEmptyAndFree) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  const HubReplica h = HubReplica::build(g, 0.0);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.replica_bytes(), 0u);
  EXPECT_FALSE(h.contains(0));
}

TEST(HubReplica, TinyGraphPositiveFractionReplicatesAtLeastOne) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  const HubReplica h = HubReplica::build(g, 0.001);  // ceil(0.001 * 6) = 1
  EXPECT_EQ(h.num_hubs(), 1u);
}

TEST(HubReplica, ApplyMaintainsSortedRows) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  HubReplica h = HubReplica::build(g, 1.0);  // replicate everything
  ASSERT_TRUE(h.contains(2));
  const auto before = h.neighbors_at(h.find(2)).size();
  EXPECT_GT(h.apply(2, 5, true), 0u);   // insert edge (2,5)
  EXPECT_GT(h.apply(5, 2, true), 0u);
  const std::uint64_t bytes = h.apply(2, 0, false);  // delete (2,0)
  EXPECT_EQ(bytes, h.neighbors_at(h.find(2)).size() * sizeof(VertexId));
  const auto row = h.neighbors_at(h.find(2));
  EXPECT_EQ(row.size(), before);  // +1 insert, -1 delete
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  EXPECT_TRUE(std::binary_search(row.begin(), row.end(), 5u));
  EXPECT_FALSE(std::binary_search(row.begin(), row.end(), 0u));
  // Non-hub endpoints are a priced-at-zero no-op.
  HubReplica none = HubReplica::build(g, 0.0);
  EXPECT_EQ(none.apply(2, 5, true), 0u);
}

// ----------------------------------------------------------- references ---

TEST(Reference, PaperExampleTriangles) {
  // Fig. 1 graph: triangles {0,1,2}, {2,3,4}, {3,4,5}.
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  const LccResult r = reference_lcc(g);
  EXPECT_EQ(r.global_triangles, 3u);
  // Vertex 2 (degree 4) participates in 2 triangles:
  // t = 2*tri = 4; LCC = 4 / (4*3) = 1/3.
  EXPECT_DOUBLE_EQ(r.lcc[2], 1.0 / 3.0);
  // Vertex 0 (degree 2) in 1 triangle: LCC = 2/(2*1) = 1.
  EXPECT_DOUBLE_EQ(r.lcc[0], 1.0);
}

TEST(Reference, CompleteGraphLccIsOne) {
  const CSRGraph g = CSRGraph::from_edges(complete(6));
  const LccResult r = reference_lcc(g);
  EXPECT_EQ(r.global_triangles, 20u);  // C(6,3)
  for (double c : r.lcc) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(Reference, TriangleFreeGraphScoresZero) {
  // Star graph: no triangles.
  EdgeList e(5, {}, Directedness::Undirected);
  for (VertexId v = 1; v < 5; ++v) {
    e.add_edge(0, v);
    e.add_edge(v, 0);
  }
  const LccResult r = reference_lcc(CSRGraph::from_edges(e));
  EXPECT_EQ(r.global_triangles, 0u);
  for (double c : r.lcc) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(Reference, NaiveAgreesOnRandomGraphs) {
  for (std::uint64_t seed : {1, 2, 3}) {
    auto e = generate_rmat({.scale = 7, .edge_factor = 6, .seed = seed});
    clean(e);
    const CSRGraph g = CSRGraph::from_edges(e);
    const LccResult fast = reference_lcc(g);
    const LccResult naive = naive_lcc(g);
    EXPECT_EQ(fast.global_triangles, naive.global_triangles);
    EXPECT_EQ(fast.triangles, naive.triangles);
  }
}

TEST(Reference, DirectedTransitiveTriad) {
  // 0->1, 0->2, 1->2: one transitive triad with apex 0.
  EdgeList e(3, {{0, 1}, {0, 2}, {1, 2}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  const LccResult r = reference_lcc(g);
  EXPECT_EQ(r.global_triangles, 1u);
  // Apex 0: deg+ = 2, t = 1, LCC = 1/(2*1) = 0.5 (paper Eq. 1).
  EXPECT_DOUBLE_EQ(r.lcc[0], 0.5);
  EXPECT_DOUBLE_EQ(r.lcc[1], 0.0);
}

TEST(Reference, DirectedCycleHasNoTransitiveTriad) {
  EdgeList e(3, {{0, 1}, {1, 2}, {2, 0}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_EQ(reference_lcc(g).global_triangles, 0u);
}

TEST(LccScore, DegreeBelowTwoIsZero) {
  EXPECT_DOUBLE_EQ(lcc_score(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(lcc_score(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(lcc_score(2, 2), 1.0);
}

// ---------------------------------------------------------- degree stats ---

TEST(DegreeStats, UniformVsPowerLawGini) {
  const CSRGraph k = CSRGraph::from_edges(complete(8));
  const auto s = degree_stats(k);
  EXPECT_NEAR(s.gini, 0.0, 1e-9);  // all degrees equal
  EXPECT_EQ(s.min, 7u);
  EXPECT_EQ(s.max, 7u);
}

TEST(DegreeStats, TopDegreeShareConcentratesOnHubs) {
  auto e = generate_rmat({.scale = 10, .edge_factor = 8, .seed = 4});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  // Weight each vertex by its degree: the top-10% must hold well over 10%.
  std::vector<std::uint64_t> w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) w[v] = g.degree(v);
  EXPECT_GT(top_degree_share(g, w, 0.10), 0.3);
}

TEST(DegreeStats, ReciprocityOfUndirectedIsOne) {
  const CSRGraph g = CSRGraph::from_edges(paper_example());
  EXPECT_DOUBLE_EQ(reciprocity(g), 1.0);
}

TEST(DegreeStats, ReciprocityDirected) {
  EdgeList e(3, {{0, 1}, {1, 0}, {1, 2}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_NEAR(reciprocity(g), 2.0 / 3.0, 1e-12);
}

TEST(DegreeStats, VerticesByDegreeDescSorted) {
  auto e = generate_rmat({.scale = 8, .edge_factor = 4, .seed = 6});
  clean(e);
  const CSRGraph g = CSRGraph::from_edges(e);
  const auto order = vertices_by_degree_desc(g);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(g.degree(order[i - 1]), g.degree(order[i]));
}

// ----------------------------------------------------------------- DODG ---

/// Star hub 0 with leaves 1..8 plus the triangle {1,2,3}: the hub has the
/// highest degree, so every one of its edges orients toward it and its
/// DODG out-degree is zero (a sink row the engine must stream past).
CSRGraph sink_fixture() {
  EdgeList e(9, {}, Directedness::Undirected);
  for (VertexId v = 1; v < 9; ++v) e.add_edge(0, v);
  e.add_edge(1, 2);
  e.add_edge(2, 3);
  e.add_edge(1, 3);
  e.symmetrize();
  return CSRGraph::from_edges(e);
}

TEST(Dodg, PrecedesOrdersByDegreeThenId) {
  EXPECT_TRUE(dodg_precedes(2, 5, 3, 1));   // lower degree wins
  EXPECT_FALSE(dodg_precedes(3, 1, 2, 5));
  EXPECT_TRUE(dodg_precedes(3, 1, 3, 2));   // tie broken by id
  EXPECT_FALSE(dodg_precedes(3, 2, 3, 1));
  EXPECT_FALSE(dodg_precedes(3, 1, 3, 1));  // irreflexive
}

TEST(Dodg, OrientationHalvesEdgesAndKeepsRowsSorted) {
  for (const CSRGraph& g :
       {CSRGraph::from_edges(paper_example()), testsupport::rmat_graph(8, 8, 17),
        sink_fixture()}) {
    const CSRGraph d = orient_dodg(g);
    EXPECT_EQ(d.directedness(), Directedness::Directed);
    EXPECT_EQ(d.num_vertices(), g.num_vertices());
    EXPECT_EQ(d.num_edges(), g.num_edges() / 2);  // one arc per edge
    EXPECT_TRUE(d.adjacency_sorted_unique());
  }
}

TEST(Dodg, OrientationIsAcyclic) {
  // Every arc strictly ascends the total (degree, id) order of the source
  // graph, so no directed cycle can exist.
  for (const CSRGraph& g :
       {CSRGraph::from_edges(paper_example()), testsupport::rmat_graph(8, 8, 18),
        sink_fixture()}) {
    const CSRGraph d = orient_dodg(g);
    for (VertexId u = 0; u < d.num_vertices(); ++u)
      for (const VertexId v : d.neighbors(u))
        ASSERT_TRUE(dodg_precedes(g.degree(u), u, g.degree(v), v))
            << "arc " << u << "->" << v;
  }
}

TEST(Dodg, OutDegreesBoundedBySqrtM) {
  // outdeg(v) <= min(deg(v), 2m/deg(v)) <= sqrt(2m); with m counted in
  // stored arcs (both directions) the bound reads sqrt(num_edges()).
  const CSRGraph g = testsupport::rmat_graph(10, 16, 19);
  const CSRGraph d = orient_dodg(g);
  const auto bound = static_cast<VertexId>(
      std::ceil(std::sqrt(static_cast<double>(g.num_edges()))));
  EXPECT_LE(degree_stats(d).max, bound);
  // The bound actually bites on a skewed graph: the undirected hub rows
  // are far above it.
  EXPECT_GT(degree_stats(g).max, bound);
}

TEST(Dodg, SinkFixtureHubHasZeroOutDegree) {
  const CSRGraph g = sink_fixture();
  const CSRGraph d = orient_dodg(g);
  EXPECT_EQ(d.degree(0), 0u);
  // {1,2,3} plus the three triangles each triangle edge closes via the hub.
  EXPECT_EQ(reference_lcc(g).global_triangles, 4u);
}

TEST(Dodg, TcMatchesUndirectedReferenceAcrossRanks) {
  const CSRGraph fixtures[] = {CSRGraph::from_edges(paper_example()),
                               testsupport::rmat_graph(7, 8, 20),
                               sink_fixture()};
  for (const CSRGraph& g : fixtures) {
    const auto expected = reference_lcc(g).global_triangles;
    for (const std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
      core::EngineConfig paper_cfg;
      paper_cfg.intersect_tier = intersect::Tier::Paper;
      EXPECT_EQ(core::run_distributed_tc_result(g, ranks, paper_cfg, {},
                                                PartitionKind::Block1D,
                                                /*orient_dodg=*/true)
                    .global_triangles,
                expected)
          << "ranks " << ranks;
      // The tiered kernels must agree on the same oriented stream.
      core::EngineConfig tiered_cfg;
      tiered_cfg.intersect_tier = intersect::Tier::Tiered;
      EXPECT_EQ(core::run_distributed_tc_result(g, ranks, tiered_cfg, {},
                                                PartitionKind::Block1D,
                                                /*orient_dodg=*/true)
                    .global_triangles,
                expected)
          << "ranks " << ranks << " (tiered)";
    }
  }
}

TEST(Dodg, RequiresUndirectedInput) {
  testsupport::use_threadsafe_death_tests();
  EdgeList e(3, {{0, 1}, {1, 2}}, Directedness::Directed);
  const CSRGraph g = CSRGraph::from_edges(e);
  EXPECT_DEATH((void)orient_dodg(g), "undirected");
}

}  // namespace
}  // namespace atlc::graph
