#include "front_end.hpp"

#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <utility>

#include "atlc/graph/clean.hpp"
#include "atlc/graph/degree_stats.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/timer.hpp"

namespace atlc::tools {

int run_tool(const char* tool, const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "%s: %s\n", tool, ex.what());
    return 1;
  }
}

std::int64_t int_flag(const util::Cli& cli, const std::string& name,
                      std::int64_t lo, std::int64_t hi) {
  const std::int64_t v = cli.get_int(name);
  if (v < lo || v > hi)
    throw std::invalid_argument("--" + name + " must be in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " +
                                std::to_string(v));
  return v;
}

void write_trace(const obs::TraceCollector& trace, const std::string& path) {
  if (!trace.write_chrome_trace(path))
    throw std::runtime_error("cannot write " + path);
  std::fprintf(stderr, "# trace: %llu events -> %s\n",
               static_cast<unsigned long long>(trace.total_events()),
               path.c_str());
}

void add_graph_flags(util::Cli& cli, std::int64_t rmat_scale,
                     std::int64_t rmat_ef, const std::string& seed_help) {
  cli.add_string("input",
                 "SNAP text, ATLC v1 binary or v2 snapshot (atlc_ingest "
                 "output, already cleaned) edge list ('' = generate R-MAT)",
                 "");
  cli.add_int("rmat-scale", "R-MAT scale when generating", rmat_scale);
  cli.add_int("rmat-ef", "R-MAT edge factor when generating", rmat_ef);
  cli.add_int("seed", seed_help, 1);
}

graph::EdgeList raw_edges(const util::Cli& cli, graph::Directedness dir) {
  if (!cli.get_string("input").empty())
    return graph::load_edges(cli.get_string("input"), dir);
  return graph::generate_rmat(
      {.scale = static_cast<unsigned>(int_flag(cli, "rmat-scale", 1, 31)),
       .edge_factor = static_cast<unsigned>(
           int_flag(cli, "rmat-ef", 1, std::numeric_limits<unsigned>::max())),
       .seed = static_cast<std::uint64_t>(cli.get_int("seed")),
       .directedness = dir});
}

Graph load_graph(const util::Cli& cli, graph::Directedness dir) {
  util::Timer timer;
  const std::string& input = cli.get_string("input");
  Graph out;
  graph::EdgeList edges;
  if (!input.empty() && ingest::SnapshotReader::sniff(input)) {
    // atlc_ingest already cleaned and relabeled the payload; cleaning
    // again would re-permute the ids.
    out.snapshot = std::make_unique<ingest::SnapshotReader>(input);
    edges = out.snapshot->read_all();
  } else {
    edges = raw_edges(cli, dir);
    graph::clean(edges, {.relabel_seed = static_cast<std::uint64_t>(
                             cli.get_int("seed"))});
  }
  out.csr = graph::CSRGraph::from_edges(edges);
  const auto deg = graph::degree_stats(out.csr);
  std::fprintf(stderr,
               "# graph: %u vertices, %llu edge slots, max deg %u, "
               "gini %.2f (loaded in %.1f s)\n",
               out.csr.num_vertices(),
               static_cast<unsigned long long>(out.csr.num_edges()), deg.max,
               deg.gini, timer.elapsed_s());
  return out;
}

void add_engine_flags(util::Cli& cli, const std::string& partition_help) {
  cli.add_int("ranks", "simulated compute nodes", 8);
  cli.add_string("partition", partition_help, "block");
  cli.add_double("hub-frac",
                 "replicate the adjacency of this fraction of the "
                 "highest-degree vertices on every rank (0 = off)",
                 0.0);
  cli.add_flag("cache",
               "enable CLaMPI-style RMA caching (both windows, half the "
               "CSR bytes, degree scores)",
               false);
  cli.add_string("trace",
                 "write a Chrome trace-event JSON (Perfetto-loadable) of "
                 "the run's virtual-time spans to this path",
                 "");
  cli.add_string("stats-json",
                 "write aggregated CommStats/CacheStats/makespan JSON to "
                 "this path",
                 "");
}

namespace {

graph::PartitionKind partition_flag(const util::Cli& cli, bool whole_rows) {
  const std::string& name = cli.get_string("partition");
  const auto kind = graph::parse_partition_kind(name);
  if (!kind)
    throw std::invalid_argument("unknown --partition '" + name +
                                "' (block | cyclic | degree1d | grid2d)");
  if (whole_rows && *kind == graph::PartitionKind::Grid2D)
    throw std::invalid_argument("unsupported --partition '" + name +
                                "' (point queries need whole rows: block | "
                                "cyclic | degree1d)");
  return *kind;
}

}  // namespace

Engine::Engine(const util::Cli& cli, bool whole_rows)
    : ranks(static_cast<std::uint32_t>(int_flag(cli, "ranks", 1, kMaxRanks))),
      partition(partition_flag(cli, whole_rows)),
      cli_(cli) {}

core::EngineConfig Engine::config(const Graph& graph) {
  core::EngineConfig cfg;
  cfg.hub_fraction = cli_.get_double("hub-frac");
  if (cli_.get_flag("cache")) {
    cfg.use_cache = true;
    cfg.cache_sizing = core::CacheSizing::paper_default(
        graph.csr.num_vertices(), graph.csr.csr_bytes() / 2);
    cfg.victim_policy = clampi::VictimPolicy::UserScore;
  }
  // A null tracer keeps every hook a single pointer test, so untraced runs
  // stay bit-identical to uninstrumented builds.
  if (!cli_.get_string("trace").empty()) cfg.trace = &trace;
  if (graph.snapshot) {
    // The slice index is per-rank: another rank count slices in memory.
    if (graph.snapshot->ranks() == ranks)
      cfg.slice_source = graph.snapshot.get();
    else
      std::fprintf(stderr,
                   "# snapshot slice index was built for %u ranks, run uses "
                   "%u: falling back to in-memory slicing\n",
                   graph.snapshot->ranks(), ranks);
  }
  return cfg;
}

void Engine::finish(const core::EdgeAnalyticStats& stats, util::Json extra) {
  const rma::Runtime::Result& run = stats.run;
  const auto total = run.total();
  if (!cli_.get_string("trace").empty())
    write_trace(trace, cli_.get_string("trace"));
  if (const std::string& path = cli_.get_string("stats-json");
      !path.empty()) {
    util::Json doc = util::Json::object();
    doc["ranks"] = run.stats.size();
    doc["makespan_s"] = run.makespan;
    doc["wall_seconds"] = run.wall_seconds;
    doc["comm_total"] = util::to_json(total);
    util::Json per_rank = util::Json::array();
    for (const auto& s : run.stats) per_rank.push_back(util::to_json(s));
    doc["comm_per_rank"] = std::move(per_rank);
    util::Json clocks = util::Json::array();
    for (const double c : run.clocks) clocks.push_back(c);
    doc["clocks"] = std::move(clocks);
    doc["offsets_cache"] = util::to_json(stats.offsets_cache_total);
    doc["adj_cache"] = util::to_json(stats.adj_cache_total);
    doc["peak_rss_bytes"] = util::peak_rss_bytes();
    for (auto& [key, value] : extra.items()) doc[key] = std::move(value);
    if (!util::write_json_file(path, doc))
      throw std::runtime_error("cannot write " + path);
  }
  std::fprintf(stderr,
               "# makespan %.4f s (virtual) | wall %.2f s | remote gets "
               "%llu | comm %.3f s | compute %.3f s | cache hits %.1f%%\n",
               run.makespan, run.wall_seconds,
               static_cast<unsigned long long>(total.remote_gets),
               total.comm_seconds, total.compute_seconds,
               100.0 * stats.adj_cache_total.hit_rate());
  if (total.hub_local_hits > 0)
    std::fprintf(stderr, "# hub replica served %llu fetches locally\n",
                 static_cast<unsigned long long>(total.hub_local_hits));
}

}  // namespace atlc::tools
