// Quickstart: generate a graph, run the asynchronous distributed LCC engine
// on a few simulated ranks, and inspect the results.
//
//   ./quickstart [--graph-file edges.txt]
//
// This is the 60-second tour of the public API:
//   graph::generate_rmat / graph::clean / graph::CSRGraph  (substrate)
//   core::run_distributed_lcc                              (the paper's engine)
//   result.lcc / result.global_triangles / run stats       (what you get)
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace atlc;

  util::Cli cli("quickstart", "minimal LCC computation walkthrough");
  cli.add_string("graph-file",
                 "optional edge list (SNAP text or ATLC v1 binary)", "");
  cli.add_int("ranks", "simulated compute nodes", 4);
  if (!cli.parse(argc, argv)) return 1;

  // 1. Get a graph: either a real edge list or a synthetic scale-free one.
  graph::EdgeList edges;
  if (!cli.get_string("graph-file").empty()) {
    edges = graph::load_edges(cli.get_string("graph-file"),
                              graph::Directedness::Undirected);
  } else {
    edges = graph::generate_rmat({.scale = 12, .edge_factor = 8, .seed = 42});
  }

  // 2. Clean it (paper Section II-B): drop multi-edges, self loops and
  //    vertices of degree < 2; randomly relabel so 1D partitioning does not
  //    put all hubs on one rank.
  const auto report = graph::clean(edges, {.relabel_seed = 1});
  std::printf("cleaned: removed %zu multi-edges, %u low-degree vertices\n",
              report.multi_edges_removed, report.vertices_removed);

  const auto g = graph::CSRGraph::from_edges(edges);
  std::printf("graph: %u vertices, %llu directed edge slots (%.1f MiB CSR)\n",
              g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()),
              static_cast<double>(g.csr_bytes()) / (1 << 20));

  // 3. Run the asynchronous distributed engine (paper Algorithm 3) over
  //    simulated ranks, with RMA caching enabled.
  core::EngineConfig config;
  config.use_cache = true;
  config.victim_policy = clampi::VictimPolicy::UserScore;  // degree scores
  config.cache_sizing =
      core::CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 2);

  const auto ranks = static_cast<std::uint32_t>(cli.get_int("ranks"));
  const auto result = core::run_distributed_lcc(g, ranks, config);

  // 4. Use the results.
  std::printf("\nglobal triangles: %llu\n",
              static_cast<unsigned long long>(result.global_triangles));

  std::vector<graph::VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](auto a, auto b) {
    return result.lcc[a] > result.lcc[b];
  });
  std::printf("top-5 clustered vertices (LCC, degree):\n");
  for (std::size_t i = 0; i < 5 && i < order.size(); ++i)
    std::printf("  v%-8u lcc=%.3f deg=%u\n", order[i],
                result.lcc[order[i]], g.degree(order[i]));

  // 5. Inspect what the run cost (virtual time under the network model).
  const auto total = result.run.total();
  std::printf("\nrun over %u ranks: makespan %.3f s (virtual), "
              "%llu remote gets, cache hit rate %.1f%%\n",
              ranks, result.run.makespan,
              static_cast<unsigned long long>(total.remote_gets),
              100.0 * result.adj_cache_total.hit_rate());
  return 0;
}
