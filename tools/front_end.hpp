// The front end shared by atlc_run, atlc_serve and atlc_ingest: one graph
// input (--input sniffs SNAP text, v1 binary or a v2 snapshot; '' generates
// R-MAT), one engine-flag group on the fixed cost model, one stats document
// and one exit path, so every tool reads, cleans, prices and reports a run
// the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "atlc/core/edge_pipeline.hpp"
#include "atlc/core/engine_config.hpp"
#include "atlc/graph/csr.hpp"
#include "atlc/graph/edge_list.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/ingest/snapshot.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/util/cli.hpp"
#include "atlc/util/json.hpp"

namespace atlc::tools {

/// Simulated ranks are OS threads (rma::Runtime starts one per rank), so
/// the count is bounded well below what exhausts a host's thread limit.
inline constexpr std::int64_t kMaxRanks = 4096;

/// Runs a tool body after Cli::parse: a rejected flag value or a failed
/// load, run or write (any std::exception) prints "<tool>: <what>", exit 1.
int run_tool(const char* tool, const std::function<int()>& body);

/// Integer flag --`name`, rejected unless in [lo, hi].
[[nodiscard]] std::int64_t int_flag(const util::Cli& cli,
                                    const std::string& name, std::int64_t lo,
                                    std::int64_t hi);

/// Writes `trace` as Chrome trace-event JSON to `path`.
void write_trace(const obs::TraceCollector& trace, const std::string& path);

/// Registers --input, --rmat-scale, --rmat-ef and --seed (which drives the
/// generator, the relabel and whatever `seed_help` adds).
void add_graph_flags(util::Cli& cli, std::int64_t rmat_scale,
                     std::int64_t rmat_ef, const std::string& seed_help);

/// The uncleaned edge list of a text/v1 --input, or the generated R-MAT
/// (--rmat-scale in [1, 31], --rmat-ef >= 1).
[[nodiscard]] graph::EdgeList raw_edges(const util::Cli& cli,
                                        graph::Directedness dir);

struct Graph {
  graph::CSRGraph csr;
  /// Set when --input is a v2 snapshot (its slice index feeds the engine).
  std::unique_ptr<ingest::SnapshotReader> snapshot;
};

/// A v2 snapshot as stored (already cleaned), else raw_edges() through
/// clean{relabel_seed = --seed} (paper Sec. II-B). `dir` applies to text
/// input only (binary headers record their own).
[[nodiscard]] Graph load_graph(const util::Cli& cli, graph::Directedness dir);

/// Registers --ranks, --partition, --hub-frac, --cache, --trace, --stats-json.
void add_engine_flags(util::Cli& cli, const std::string& partition_help);

/// The checked engine-flag group; build it before loading any graph.
class Engine {
 public:
  /// `whole_rows`: the tool needs whole adjacency rows, so grid2d is
  /// rejected along with unknown partition names.
  Engine(const util::Cli& cli, bool whole_rows);
  /// config() hands out &trace, so an Engine stays where it was built.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  std::uint32_t ranks;
  graph::PartitionKind partition;
  obs::TraceCollector trace;

  /// The shared config for `graph`: fixed cost model, --hub-frac, and under
  /// --cache both CLaMPI windows sized paper_default(|V|, csr_bytes / 2)
  /// with degree scores; plus the tracer and the snapshot's slice index
  /// when its rank count matches.
  [[nodiscard]] core::EngineConfig config(const Graph& graph);

  /// Writes --trace and --stats-json (the base keys of `stats`, then
  /// `extra`'s) and prints the run summary to stderr.
  void finish(const core::EdgeAnalyticStats& stats, util::Json extra);

 private:
  const util::Cli& cli_;
};

}  // namespace atlc::tools
