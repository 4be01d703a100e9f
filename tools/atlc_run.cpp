// atlc_run — command-line driver for the full system: compute LCC, global
// TC, or a per-edge similarity analytic (Jaccard, overlap coefficient,
// Adamic–Adar) on an edge-list file (or a generated R-MAT instance) with
// the complete engine flag surface, and emit results as CSV for downstream
// analysis. `--stream-batches` switches to the dynamic engine (atlc::stream):
// apply generated update batches and maintain TC/LCC incrementally.
//
//   atlc_run --input graph.txt --algo lcc --ranks 16 --cache --out lcc.csv
//   atlc_run --rmat-scale 14 --algo tc --ranks 32 --pipeline-depth 4
//   atlc_run --input graph.txt --algo adamic-adar --cache --scores degree
//   atlc_run --input graph.txt --stream-batches 8 --batch-size 1024 --cache
//   atlc_run --input snap.txt --convert snap.bin   # binary snapshot, exit
//   atlc_run --input graph.v2 --algo lcc           # atlc_ingest output;
//     skips clean/relabel and seek-reads each rank's CSR slice out of core
//
// The graph input, engine flags, stats document and exit path are the
// shared front end (front_end.hpp).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "atlc/core/lcc.hpp"
#include "atlc/core/similarity.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/stream/stream_engine.hpp"
#include "atlc/util/timer.hpp"
#include "front_end.hpp"

namespace {

using namespace atlc;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != stdout) std::fclose(f);
  }
};

// The per-edge similarity analytics share one signature, slot layout and
// stats block: --algo selects the function, one path emits the result.
using SimilarityFn = core::SimilarityResult (*)(
    const graph::CSRGraph&, std::uint32_t, const core::EngineConfig&,
    const rma::NetworkModel&, graph::PartitionKind);

int run(const util::Cli& cli) {
  // Every enum-valued and range flag is checked before any graph work.
  const std::string& algo = cli.get_string("algo");
  const SimilarityFn similarity =
      algo == "jaccard"       ? core::run_distributed_jaccard
      : algo == "overlap"     ? core::run_distributed_overlap
      : algo == "adamic-adar" ? core::run_distributed_adamic_adar
                              : nullptr;
  if (algo != "lcc" && algo != "tc" && similarity == nullptr)
    throw std::invalid_argument("unknown --algo '" + algo +
                                "' (lcc | tc | jaccard | overlap | "
                                "adamic-adar)");
  const auto method = intersect::parse_method(cli.get_string("method"));
  if (!method)
    throw std::invalid_argument("unknown --method '" +
                                cli.get_string("method") +
                                "' (hybrid | ssi | binary)");
  const std::string& scores = cli.get_string("scores");
  if (scores != "clampi" && scores != "degree")
    throw std::invalid_argument("unknown --scores '" + scores +
                                "' (clampi | degree)");
  tools::Engine engine(cli, /*whole_rows=*/false);
  // The incremental stream counter and the per-edge similarity analytics
  // are 1D-only (the library would abort on the same conditions).
  const bool streaming = cli.get_int("stream-batches") > 0;
  const bool grid2d = engine.partition == graph::PartitionKind::Grid2D;
  if (grid2d && streaming)
    throw std::invalid_argument(
        "--partition grid2d does not support --stream-batches yet "
        "(incremental counting is 1D-only)");
  if (grid2d && similarity != nullptr)
    throw std::invalid_argument(
        "--partition grid2d does not support per-edge similarity scores "
        "(they need whole adjacency rows)");
  if (streaming && similarity != nullptr)
    throw std::invalid_argument("--stream-batches maintains TC/LCC only "
                                "(--algo " + algo + " unsupported)");
  const auto dir = cli.get_flag("directed") ? graph::Directedness::Directed
                                            : graph::Directedness::Undirected;

  if (const std::string& path = cli.get_string("convert"); !path.empty()) {
    const std::string& input = cli.get_string("input");
    if (!input.empty() && ingest::SnapshotReader::sniff(input))
      throw std::invalid_argument("--convert does not apply to a v2 "
                                  "snapshot input (a snapshot is already "
                                  "binary)");
    // Snapshot the edge list as loaded (pre-clean, so the binary is an
    // exact stand-in for the original input on any later invocation).
    util::Timer timer;
    const graph::EdgeList edges = tools::raw_edges(cli, dir);
    graph::save_binary_edges(edges, path);
    std::fprintf(stderr, "# wrote %zu edges to %s (binary, %.1f s total)\n",
                 edges.num_edges(), path.c_str(), timer.elapsed_s());
    return 0;
  }

  const tools::Graph loaded = tools::load_graph(cli, dir);
  const graph::CSRGraph& g = loaded.csr;
  if (streaming && g.directedness() == graph::Directedness::Directed)
    throw std::invalid_argument("--stream-batches needs an undirected graph");
  core::EngineConfig cfg = engine.config(loaded);
  cfg.method = *method;
  cfg.pipeline_depth = static_cast<std::size_t>(
      std::max<std::int64_t>(1, cli.get_int("pipeline-depth")));
  if (cfg.use_cache) {
    cfg.cache_sizing = core::CacheSizing::paper_default(
        g.num_vertices(),
        static_cast<std::uint64_t>(cli.get_double("cache-frac") *
                                   static_cast<double>(g.csr_bytes())));
    if (scores == "clampi")
      cfg.victim_policy = clampi::VictimPolicy::LruPositional;
    cfg.cache_adaptive = cli.get_flag("adaptive");
  }
  engine.trace.capture_wall = cli.get_flag("trace-wall");
  const std::string& out_path = cli.get_string("out");
  const std::unique_ptr<std::FILE, FileCloser> file(
      out_path.empty() || out_path == "-"
          ? stdout
          : std::fopen(out_path.c_str(), "w"));
  if (!file) throw std::runtime_error("cannot open " + out_path);
  std::FILE* out = file.get();
  const bool rows = !cli.get_flag("stats-only");
  util::Json extra = util::Json::object();
  extra["algo"] = algo;

  if (streaming) {
    stream::WorkloadConfig wl;
    wl.num_batches = static_cast<std::size_t>(cli.get_int("stream-batches"));
    wl.batch_size = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.get_int("batch-size")));
    wl.insert_fraction = cli.get_double("stream-insert-frac");
    wl.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto batches = stream::generate_batches(g, wl);

    stream::StreamOptions sopts;
    sopts.engine = cfg;
    sopts.partition = engine.partition;
    const auto r = stream::run_streaming_lcc(g, batches, engine.ranks, sopts);
    engine.finish(r, std::move(extra));
    std::fprintf(stderr,
                 "# cold count %.4f s | stream %.4f s over %zu batches | "
                 "stale evictions %llu\n",
                 r.initial_makespan, r.stream_makespan, batches.size(),
                 static_cast<unsigned long long>(
                     r.adj_cache_total.stale_evictions +
                     r.offsets_cache_total.stale_evictions));
    for (std::size_t bi = 0; bi < r.batches.size(); ++bi) {
      const auto& b = r.batches[bi];
      std::fprintf(stderr,
                   "#   batch %zu: +%llu -%llu edges, %lld tri delta -> "
                   "%llu triangles, %llu rows, %.5f s\n",
                   bi, static_cast<unsigned long long>(b.effective_insertions),
                   static_cast<unsigned long long>(b.effective_deletions),
                   static_cast<long long>(b.triangles_delta),
                   static_cast<unsigned long long>(b.global_triangles),
                   static_cast<unsigned long long>(b.rows_rebuilt),
                   b.makespan);
    }
    if (algo == "tc") {
      std::fprintf(out, "global_triangles\n%llu\n",
                   static_cast<unsigned long long>(r.global_triangles));
    } else if (rows) {
      std::fprintf(out, "vertex,triangles,lcc\n");
      for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
        std::fprintf(out, "%u,%llu,%.6f\n", v,
                     static_cast<unsigned long long>(r.triangles[v]),
                     r.lcc[v]);
    }
  } else if (algo == "lcc") {
    const auto r =
        core::run_distributed_lcc(g, engine.ranks, cfg, {}, engine.partition);
    engine.finish(r, std::move(extra));
    std::fprintf(stderr, "# global triangles: %llu\n",
                 static_cast<unsigned long long>(r.global_triangles));
    if (rows) {
      std::fprintf(out, "vertex,degree,triangles,lcc\n");
      for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
        std::fprintf(out, "%u,%u,%llu,%.6f\n", v, g.degree(v),
                     static_cast<unsigned long long>(r.triangles[v]),
                     r.lcc[v]);
    }
  } else if (algo == "tc") {
    const auto r = core::run_distributed_tc_result(
        g, engine.ranks, cfg, {}, engine.partition, engine.orient_tc());
    engine.finish(r, std::move(extra));
    std::fprintf(out, "global_triangles\n%llu\n",
                 static_cast<unsigned long long>(r.global_triangles));
  } else {
    const auto r = similarity(g, engine.ranks, cfg, {}, engine.partition);
    engine.finish(r, std::move(extra));
    if (rows) {
      std::fprintf(out, "u,v,%s\n", algo.c_str());
      std::size_t k = 0;
      for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
        for (graph::VertexId v : g.neighbors(u))
          std::fprintf(out, "%u,%u,%.6f\n", u, v, r.score[k++]);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("atlc_run",
                "distributed LCC / TC / Jaccard on an edge list or R-MAT");
  tools::add_graph_flags(cli, 13, 16,
                         "generator / relabeling / stream-batch seed");
  tools::add_engine_flags(cli, "block | cyclic | degree1d | grid2d");
  cli.add_flag("directed", "treat the input as directed", false);
  cli.add_string("algo", "lcc | tc | jaccard | overlap | adamic-adar", "lcc");
  cli.add_string("method", "hybrid | ssi | binary (--tier paper kernel)",
                 "hybrid");
  cli.add_int("pipeline-depth",
              "prefetch pipeline depth k (2 = paper double buffering, "
              "1 = no overlap)",
              2);
  cli.add_double("cache-frac", "cache budget as fraction of CSR bytes", 0.5);
  cli.add_string("scores", "clampi | degree (victim-selection scores)",
                 "degree");
  cli.add_flag("adaptive", "enable adaptive hash resizing", false);
  cli.add_flag("trace-wall",
               "stamp trace events with wall-clock time too (machine-"
               "dependent: forfeits byte-identical traces)",
               false);
  cli.add_string("out", "output CSV path ('-' = stdout)", "-");
  cli.add_flag("stats-only", "skip the per-item CSV body", false);
  cli.add_string("convert",
                 "snapshot the loaded edge list to this binary file and "
                 "exit (skips the 6x text-parse cost on later runs)",
                 "");
  cli.add_int("stream-batches",
              "apply this many update batches with the incremental "
              "streaming engine (0 = static run)",
              0);
  cli.add_int("batch-size", "updates per streaming batch", 256);
  cli.add_double("stream-insert-frac",
                 "fraction of streamed updates that are insertions", 0.7);
  if (!cli.parse(argc, argv)) return 1;
  return tools::run_tool("atlc_run", [&] { return run(cli); });
}
