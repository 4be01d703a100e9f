// Shared test fixtures: the paper's running-example graph, R-MAT builders
// and reference-LCC comparison helpers previously duplicated across suites.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/edge_list.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/reference.hpp"

namespace atlc::testsupport {

/// The paper's running example (Fig. 1 left): 6 vertices, two "communities"
/// bridged by edges 2-4, triangles {0,1,2}, {2,3,4}, {3,4,5}. Undirected.
inline graph::EdgeList paper_example_edges() {
  graph::EdgeList e(6, {}, graph::Directedness::Undirected);
  for (auto [u, v] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4}, {4, 5}, {3, 5}})
    e.add_edge(u, v);
  e.symmetrize();
  return e;
}

inline graph::CSRGraph paper_example() {
  return graph::CSRGraph::from_edges(paper_example_edges());
}

/// Cleaned CSR from an R-MAT instance with the given shape and seed.
inline graph::CSRGraph rmat_graph(
    unsigned scale, unsigned ef, std::uint64_t seed,
    graph::Directedness dir = graph::Directedness::Undirected) {
  auto e = graph::generate_rmat(
      {.scale = scale, .edge_factor = ef, .seed = seed, .directedness = dir});
  graph::clean(e);
  return graph::CSRGraph::from_edges(e);
}

/// Complete graph K_n (both edge directions stored).
inline graph::EdgeList complete_edges(graph::VertexId n) {
  graph::EdgeList e(n, {}, graph::Directedness::Undirected);
  for (graph::VertexId u = 0; u < n; ++u)
    for (graph::VertexId v = 0; v < n; ++v)
      if (u != v) e.add_edge(u, v);
  return e;
}

/// Death tests fork the process; with the multi-threaded rma::Runtime in
/// play the default "fast" style is unsafe (only the forking thread survives
/// in the child). Call at the top of any test that uses EXPECT_DEATH.
inline void use_threadsafe_death_tests() {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
}

/// Assert that a distributed run reproduces the single-node reference LCC
/// exactly: per-vertex triangle counts, per-vertex LCC, and the global count.
inline void expect_matches_reference(const graph::CSRGraph& g,
                                     const core::RunResult& result) {
  const auto ref = graph::reference_lcc(g);
  ASSERT_EQ(result.triangles.size(), ref.triangles.size());
  for (std::size_t v = 0; v < ref.triangles.size(); ++v) {
    ASSERT_EQ(result.triangles[v], ref.triangles[v]) << "vertex " << v;
    ASSERT_DOUBLE_EQ(result.lcc[v], ref.lcc[v]) << "vertex " << v;
  }
  EXPECT_EQ(result.global_triangles, ref.global_triangles);
}

/// The TC record of an undirected graph against the reference: per vertex
/// t(v) (half the reference's edge-centric count) and an LCC score
/// bit-identical to the reference's, plus the distinct-triangle total.
inline void expect_tc_matches_reference(const graph::CSRGraph& g,
                                        const core::RunResult& result) {
  const auto ref = graph::reference_lcc(g);
  ASSERT_EQ(result.triangles.size(), ref.triangles.size());
  for (std::size_t v = 0; v < ref.triangles.size(); ++v) {
    ASSERT_EQ(2 * result.triangles[v], ref.triangles[v]) << "vertex " << v;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(result.lcc[v]),
              std::bit_cast<std::uint64_t>(ref.lcc[v]))
        << "vertex " << v;
  }
  EXPECT_EQ(result.global_triangles, ref.global_triangles);
}

}  // namespace atlc::testsupport
