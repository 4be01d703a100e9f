#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "atlc/graph/types.hpp"
#include "atlc/ingest/snapshot.hpp"

namespace atlc::obs {
class TraceCollector;
}  // namespace atlc::obs

namespace atlc::ingest {

/// Vertex-id relabeling applied after low-degree removal, mirroring
/// graph::clean(): `Random` is relabel_random(seed) (paper Section II-B,
/// what atlc_run applies by default), `DegreeDescending` assigns ids by
/// descending degree (useful as a DODG-friendly ordering), `None` keeps the
/// compacted first-appearance ids.
enum class RelabelMode : std::uint8_t { None, Random, DegreeDescending };

struct IngestOptions {
  /// Target bytes per text read window (see graph::ChunkReader; a target,
  /// not a cap). The thread/chunk-size sweep in the ingest bench varies
  /// this. graph::load_text_edges uses its own fixed window.
  std::size_t chunk_bytes = std::size_t{8} << 20;
  /// OpenMP threads for parse and sort stages; 0 = the OpenMP default
  /// (mirrors intersect::ParallelConfig).
  int num_threads = 0;
  /// Watermark for each external-sort stage; 0 = fully in memory. The
  /// pipeline runs two sorter stages (raw and relabeled), so transient peak
  /// memory is ~2x this during the re-sort (DESIGN.md §11).
  std::uint64_t mem_budget_bytes = 0;
  /// Rank count the snapshot's slice index is built for. A snapshot serves
  /// exactly this many ranks; other counts fall back to the in-memory path.
  std::uint32_t ranks = 8;
  /// Directedness for *text* input (binary v1 input records its own).
  /// Undirected text input is symmetrized, exactly like load_text_edges.
  graph::Directedness directedness = graph::Directedness::Undirected;
  RelabelMode relabel = RelabelMode::Random;
  std::uint64_t relabel_seed = 1;
  /// Apply clean()'s single low-degree pass (vertices with degree < 2
  /// cannot close a triangle; CleanOptions::remove_degree_lt2).
  bool remove_degree_lt2 = true;
  /// Reject inputs with more distinct vertex ids than this (testability
  /// seam for the uint32 id-space overflow guard; ids are compacted, so
  /// only the *distinct* count matters).
  std::uint64_t max_vertices = 0xffffffffull;
  /// Directory for spill files; empty = alongside the output snapshot.
  std::string tmp_dir;
  /// Optional trace sink (atlc::obs): records the pipeline's stage spans
  /// (read_parse / merge_degree / map_relabel / write_snapshot) as rank 0.
  /// Ingest has no virtual clock, so these spans carry WALL timestamps and
  /// are excluded from every determinism claim. Not owned.
  obs::TraceCollector* trace = nullptr;
};

/// Everything the CLI prints and the ingest bench records. Wall-clock
/// fields are machine-dependent; the determinism fields (counts, checksums,
/// extent totals) are bit-stable across threads, chunk sizes, and memory
/// budgets — the property the equivalence tests pin down.
struct IngestReport {
  std::string input_kind;               ///< "text" or "binary-v1"
  std::uint64_t bytes_read = 0;         ///< input bytes consumed
  std::uint64_t lines = 0;              ///< text lines seen (0 for binary)
  std::uint64_t pairs_parsed = 0;       ///< id pairs parsed from the input
  std::uint64_t raw_edges = 0;          ///< edges entering the sort (incl.
                                        ///< symmetrized copies)
  std::uint64_t duplicates_removed = 0;
  std::uint64_t self_loops_removed = 0;
  graph::VertexId vertices_in = 0;      ///< distinct ids after compaction
  graph::VertexId vertices_removed = 0; ///< dropped by the low-degree pass
  graph::VertexId num_vertices = 0;     ///< final |V|
  std::uint64_t num_edges = 0;          ///< final |E| (directed slots)
  std::size_t spill_runs = 0;           ///< run files across both stages
  std::uint32_t ranks = 0;
  double parse_seconds = 0.0;  ///< read + parse + intern (minus spill sorts)
  double sort_seconds = 0.0;   ///< in-add spills, finish() sorts, both stages
  double merge_seconds = 0.0;  ///< merge replays: degree count + remap
  double write_seconds = 0.0;  ///< snapshot emit + finalize
  double total_seconds = 0.0;
  /// parse_seconds + sort_seconds: the OpenMP-parallel portion, the basis
  /// of the bench's 1->T speedup metric.
  double parse_sort_seconds = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t edge_checksum = 0;
  std::uint64_t degree_checksum = 0;
  /// Slice-index extent totals, indexed by PartitionKind value.
  std::uint64_t extents[snapshot_v2::kKindCount] = {};
};

/// The out-of-core ingest pipeline (DESIGN.md §11): stream `input` (SNAP
/// text or v1 binary) through the graph/io.hpp readers, parse in parallel, fused
/// clean/sort/dedup/relabel via external merge sort, and write a v2
/// partition-sliced snapshot to `output`. The cleaned graph is bit-identical
/// to load_edges() + graph::clean() with the matching options, for any
/// thread count, chunk size, or memory budget. Throws std::runtime_error
/// ("atlc: ..." messages) on malformed input.
IngestReport run_ingest(const std::string& input, const std::string& output,
                        const IngestOptions& options = {});

}  // namespace atlc::ingest
