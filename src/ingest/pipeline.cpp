#include "atlc/ingest/pipeline.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "atlc/graph/io.hpp"
#include "atlc/graph/partition.hpp"
#include "atlc/graph/relabel.hpp"
#include "atlc/ingest/external_sorter.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/util/check.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/timer.hpp"

#if !defined(ATLC_NO_OPENMP) && defined(_OPENMP)
#include <omp.h>
#define ATLC_INGEST_OMP 1
#endif

namespace atlc::ingest {

namespace {

using graph::Directedness;
using graph::Partition;
using graph::PartitionKind;

constexpr VertexId kRemoved = static_cast<VertexId>(-1);

int resolve_threads(int requested) {
#ifdef ATLC_INGEST_OMP
  return requested > 0 ? requested : omp_get_max_threads();
#else
  return requested > 0 ? requested : 1;
#endif
}

std::string tmp_prefix(const std::string& output, const std::string& tmp_dir) {
  if (tmp_dir.empty()) return output + ".tmp";
  const std::filesystem::path out(output);
  return (std::filesystem::path(tmp_dir) / out.filename()).string() + ".tmp";
}

/// Stage-1 text ingest: the graph layer's text reader (parallel parse,
/// sequential first-appearance interning) feeds the raw sorter one batch of
/// windows at a time. Undirected input is symmetrized here — both
/// orientations enter the sort, exactly like EdgeList::symmetrize() after
/// load_text_edges().
void ingest_text(const std::string& input, const IngestOptions& opt,
                 int threads, ExternalEdgeSorter& sorter, IngestReport& rep) {
  graph::TextEdgeReader reader(input, opt.chunk_bytes, opt.max_vertices,
                               threads);
  const bool symmetrize = opt.directedness == Directedness::Undirected;
  std::vector<Edge> batch;
  while (reader.next(batch)) {
    if (symmetrize) {
      const std::size_t parsed = batch.size();
      for (std::size_t i = 0; i < parsed; ++i) {
        const Edge e = batch[i];
        if (e.u != e.v) batch.push_back({e.v, e.u});
      }
    }
    sorter.add(batch);
    batch.clear();
  }
  rep.input_kind = "text";
  rep.lines = reader.lines();
  rep.pairs_parsed = reader.pairs();
  rep.bytes_read = reader.bytes_read();
  rep.raw_edges = sorter.total_edges();
  rep.vertices_in = reader.num_vertices();
}

/// Stage-1 v1-binary ingest: the graph layer's validating binary reader
/// streams the already-compacted payload into the sorter block by block.
/// No interning, no symmetrization (matching load_binary_edges).
Directedness ingest_binary_v1(const std::string& input,
                              ExternalEdgeSorter& sorter, IngestReport& rep) {
  graph::BinaryEdgeReader reader(input);
  std::vector<Edge> block;
  while (reader.next(block)) {
    sorter.add(block);
    block.clear();
  }
  rep.input_kind = "binary-v1";
  rep.bytes_read = reader.file_bytes();
  rep.pairs_parsed = reader.num_edges();
  rep.raw_edges = reader.num_edges();
  rep.vertices_in = reader.num_vertices();
  return reader.directedness();
}

/// Replay `sorter`'s merged stream with the dedup/self-loop filter applied
/// (the fused sort_and_dedup + remove_self_loops), visiting surviving edges
/// in strictly increasing order.
template <typename Visit>
void for_each_clean(const ExternalEdgeSorter& sorter, Visit&& visit) {
  Edge prev{0, 0};
  bool first = true;
  sorter.for_each_sorted([&](const Edge& e) {
    if (e.u == e.v) return;
    if (!first && e == prev) return;
    prev = e;
    first = false;
    visit(e);
  });
}

}  // namespace

IngestReport run_ingest(const std::string& input, const std::string& output,
                        const IngestOptions& opt) {
  util::Timer total;
  IngestReport rep;
  rep.ranks = opt.ranks;
  ATLC_CHECK(opt.ranks > 0, "ingest needs >= 1 rank");

  const int threads = resolve_threads(opt.num_threads);
  const std::string prefix = tmp_prefix(output, opt.tmp_dir);

  // Stage spans recorded as rank 0 against a WALL clock — ingest has no
  // virtual time, so these traces are machine-dependent by construction
  // (IngestOptions::trace). Unbound when tracing is off: zero overhead.
  obs::Tracer tracer;
  if (opt.trace != nullptr) {
    opt.trace->prepare(1);
    tracer.bind(
        opt.trace, 0,
        [](const void* t) {
          return static_cast<const util::Timer*>(t)->elapsed_s();
        },
        &total);
  }

  // ---- Stage 1: stream the input into the raw external sorter. ----------
  tracer.begin("read_parse");
  util::Timer parse_timer;
  ExternalEdgeSorter raw(prefix + ".raw", opt.mem_budget_bytes, threads);
  Directedness dir = opt.directedness;
  const graph::FileFormat format = graph::sniff_format(input);
  if (format == graph::FileFormat::Snapshot)
    throw std::runtime_error(
        "atlc: input is already a v2 snapshot (nothing to ingest): " + input);
  if (format == graph::FileFormat::Binary)
    dir = ingest_binary_v1(input, raw, rep);
  else
    ingest_text(input, opt, threads, raw, rep);
  raw.finish();
  const double stage1_wall = parse_timer.elapsed_s();
  rep.parse_seconds = stage1_wall - raw.sort_seconds();
  tracer.end("read_parse");

  const VertexId n0 = rep.vertices_in;

  // ---- Pass A: merged replay -> dedup stats + degree counts. ------------
  // deg_filter replicates remove_low_degree_once's count (u always, v only
  // when directed); out_deg is the final CSR out-degree, reusable directly
  // when the remap and relabel below turn out to be identities.
  tracer.begin("merge_degree");
  util::Timer merge_timer;
  std::vector<VertexId> deg_filter(n0, 0);
  std::vector<VertexId> out_deg(n0, 0);
  std::uint64_t m_clean = 0;
  {
    Edge prev{0, 0};
    bool first = true;
    raw.for_each_sorted([&](const Edge& e) {
      if (e.u == e.v) {
        ++rep.self_loops_removed;
        return;
      }
      if (!first && e == prev) {
        ++rep.duplicates_removed;
        return;
      }
      prev = e;
      first = false;
      ++m_clean;
      ++deg_filter[e.u];
      ++out_deg[e.u];
      if (dir == Directedness::Directed) ++deg_filter[e.v];
    });
  }

  // Low-degree removal (one pass, matching CleanOptions defaults):
  // survivors renumbered in id order — remove_low_degree_once's `next++`.
  std::vector<VertexId> remap(n0, kRemoved);
  std::vector<VertexId> orig_of(n0);
  VertexId n1 = 0;
  for (VertexId v = 0; v < n0; ++v) {
    const bool keep = !opt.remove_degree_lt2 || deg_filter[v] >= 2;
    if (keep) {
      orig_of[n1] = v;
      remap[v] = n1++;
    }
  }
  orig_of.resize(n1);
  rep.vertices_removed = n0 - n1;
  rep.num_vertices = n1;
  tracer.end("merge_degree");
  tracer.begin("map_relabel");

  // Relabel permutation over the compacted survivor ids.
  std::vector<VertexId> perm;
  switch (opt.relabel) {
    case RelabelMode::None:
      break;
    case RelabelMode::Random:
      perm = graph::random_permutation(n1, opt.relabel_seed);
      break;
    case RelabelMode::DegreeDescending: {
      // Keyed on pre-filter degrees (the post-filter ones depend on which
      // edges survive, which depends on this very relabel for nothing —
      // ids never change degrees — but pre-filter is the stable choice and
      // is what a DODG orientation wants). Compact ids preserve original
      // id order, so comparing them breaks ties by first appearance.
      std::vector<VertexId> order(n1);
      std::iota(order.begin(), order.end(), VertexId{0});
      std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
        const VertexId da = deg_filter[orig_of[a]];
        const VertexId db = deg_filter[orig_of[b]];
        return da != db ? da > db : a < b;
      });
      perm.resize(n1);
      for (VertexId i = 0; i < n1; ++i) perm[order[i]] = i;
      break;
    }
  }

  // ---- Pass B: build the final sorted stream. ---------------------------
  // Identity fast path: nothing removed and no relabel means the clean
  // stream from pass A *is* the final stream — replay it instead of paying
  // a second sort. Otherwise map every surviving edge and re-sort (the
  // relabel scrambles lexicographic order).
  const bool identity = rep.vertices_removed == 0 && perm.empty();
  std::unique_ptr<ExternalEdgeSorter> mapped;
  std::vector<VertexId> deg_final;
  if (identity) {
    deg_final = std::move(out_deg);
  } else {
    mapped = std::make_unique<ExternalEdgeSorter>(
        prefix + ".mapped", opt.mem_budget_bytes, threads);
    deg_final.assign(n1, 0);
    std::vector<Edge> batch;
    batch.reserve(std::size_t{1} << 15);
    for_each_clean(raw, [&](const Edge& e) {
      const VertexId cu = remap[e.u];
      const VertexId cv = remap[e.v];
      if (cu == kRemoved || cv == kRemoved) return;
      const Edge fe = perm.empty() ? Edge{cu, cv} : Edge{perm[cu], perm[cv]};
      ++deg_final[fe.u];
      batch.push_back(fe);
      if (batch.size() == batch.capacity()) {
        mapped->add(batch);
        batch.clear();
      }
    });
    mapped->add(batch);
    // Drop stage-A storage before stage B's spill replays peak; capture the
    // stats first (clear() resets the run list).
    rep.spill_runs = raw.spill_runs();
    rep.sort_seconds = raw.sort_seconds();
    raw.clear();
    mapped->finish();
  }
  const ExternalEdgeSorter& final_stream = identity ? raw : *mapped;
  const auto replay_final = [&](const std::function<void(const Edge&)>& v) {
    if (identity)
      for_each_clean(raw, v);
    else
      final_stream.for_each_sorted(v);
  };

  // DegreeBalanced1D weights, exactly as make_partition derives them from
  // the final CSR: each out-edge (u, v) contributes deg(u) + deg(v) to u.
  std::vector<std::uint64_t> weights(n1, 0);
  replay_final([&](const Edge& e) {
    weights[e.u] += std::uint64_t{deg_final[e.u]} + deg_final[e.v];
  });
  rep.merge_seconds = merge_timer.elapsed_s() -
                      (identity ? 0.0 : mapped->sort_seconds());
  tracer.end("map_relabel");

  // ---- Stage 3: emit the partition-sliced snapshot. ---------------------
  tracer.begin("write_snapshot");
  util::Timer write_timer;
  std::vector<Partition> parts;
  parts.reserve(snapshot_v2::kKindCount);
  parts.emplace_back(PartitionKind::Block1D, n1, opt.ranks);
  parts.emplace_back(PartitionKind::Cyclic1D, n1, opt.ranks);
  parts.push_back(Partition::degree_balanced(
      std::span<const std::uint64_t>(weights), opt.ranks));
  parts.emplace_back(PartitionKind::Grid2D, n1, opt.ranks);

  {
    SnapshotWriter writer(output, n1, dir, std::move(parts));
    replay_final([&](const Edge& e) { writer.append(e); });
    writer.finalize(deg_final);
    rep.num_edges = writer.num_edges();
    rep.edge_checksum = writer.edge_checksum();
    rep.degree_checksum = writer.degree_checksum();
    for (std::size_t k = 0; k < snapshot_v2::kKindCount; ++k)
      rep.extents[k] = writer.extents_total(k);
  }
  rep.write_seconds = write_timer.elapsed_s();
  tracer.end("write_snapshot");
  tracer.unbind();
  ATLC_CHECK(!identity || rep.num_edges == m_clean,
             "identity path must emit every cleaned edge");

  if (identity) {
    rep.spill_runs = raw.spill_runs();
    rep.sort_seconds = raw.sort_seconds();
  } else {
    rep.spill_runs += mapped->spill_runs();
    rep.sort_seconds += mapped->sort_seconds();
  }
  rep.parse_sort_seconds = rep.parse_seconds + rep.sort_seconds;
  rep.snapshot_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(output));
  rep.peak_rss_bytes = util::peak_rss_bytes();
  rep.total_seconds = total.elapsed_s();
  return rep;
}

}  // namespace atlc::ingest
