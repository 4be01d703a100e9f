// Tests for the generic depth-k edge-pipeline engine (core::EdgePipeline):
// correctness at every depth, equivalence with the pre-refactor
// double-buffer loop in virtual time, the fetcher ring's span-lifetime
// contract, and the similarity analytics built as kernels on the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "atlc/core/edge_pipeline.hpp"
#include "atlc/core/fetcher.hpp"
#include "atlc/core/lcc.hpp"
#include "atlc/core/similarity.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/serve/query_engine.hpp"
#include "atlc/serve/workload.hpp"
#include "atlc/stream/stream_engine.hpp"
#include "atlc/util/recorder.hpp"
#include "test_support.hpp"

namespace atlc::core {
namespace {

using graph::CSRGraph;
using graph::Directedness;
using graph::EdgeList;
using testsupport::expect_matches_reference;
using testsupport::paper_example;
using testsupport::rmat_graph;

EngineConfig depth_config(std::size_t k) {
  EngineConfig cfg;
  cfg.pipeline_depth = k;
  return cfg;
}

/// Directed graph with zero-OUT-degree vertices that other ranks must
/// fetch remotely: the two-get protocol's empty-adjacency path (the fetch
/// resolves after step 1 without consuming a ring slot).
CSRGraph directed_with_sinks() {
  EdgeList e(8, {}, Directedness::Directed);
  // 3 and 7 are sinks (out-degree 0, in-degree > 0); triangles 0->1->2->0
  // transitive triads plus fan-in edges onto the sinks.
  for (auto [u, v] : std::initializer_list<std::pair<int, int>>{
           {0, 1}, {1, 2}, {0, 2}, {2, 3}, {0, 3}, {1, 3}, {4, 5}, {5, 6},
           {4, 6}, {6, 7}, {4, 7}, {2, 4}, {1, 7}})
    e.add_edge(u, v);
  return CSRGraph::from_edges(e);
}

// ------------------------------------------------------- depth sweep, LCC ---

class PipelineDepth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PipelineDepth, LccMatchesReferenceOnPaperExample) {
  const CSRGraph g = paper_example();
  expect_matches_reference(
      g, run_distributed_lcc(g, 3, depth_config(GetParam())));
}

TEST_P(PipelineDepth, LccMatchesReferenceOnRmat) {
  const CSRGraph g = rmat_graph(9, 8, 31);
  expect_matches_reference(
      g, run_distributed_lcc(g, 4, depth_config(GetParam())));
}

TEST_P(PipelineDepth, LccMatchesReferenceOnDirectedRmat) {
  const CSRGraph g = rmat_graph(8, 8, 32, Directedness::Directed);
  expect_matches_reference(
      g, run_distributed_lcc(g, 4, depth_config(GetParam())));
}

TEST_P(PipelineDepth, LccMatchesReferenceSingleRank) {
  const CSRGraph g = rmat_graph(8, 8, 33);
  expect_matches_reference(
      g, run_distributed_lcc(g, 1, depth_config(GetParam())));
}

TEST_P(PipelineDepth, LccMatchesReferenceWithCaching) {
  const CSRGraph g = rmat_graph(9, 8, 34);
  EngineConfig cfg = depth_config(GetParam());
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 19);
  expect_matches_reference(g, run_distributed_lcc(g, 4, cfg));
}

TEST_P(PipelineDepth, ZeroOutDegreeVerticesFetchedRemotely) {
  const CSRGraph g = directed_with_sinks();
  // 4 ranks over 8 vertices: the sinks (3, 7) are remote to most ranks.
  expect_matches_reference(
      g, run_distributed_lcc(g, 4, depth_config(GetParam())));
}

TEST_P(PipelineDepth, TcGlobalCountMatches) {
  const CSRGraph g = rmat_graph(8, 8, 35);
  const auto ref = graph::reference_lcc(g);
  EXPECT_EQ(
      run_distributed_tc_result(g, 4, depth_config(GetParam())).global_triangles,
      ref.global_triangles);
}

TEST_P(PipelineDepth, JaccardMatchesReference) {
  const CSRGraph g = rmat_graph(8, 8, 36);
  const auto ref = reference_jaccard(g);
  const auto r = run_distributed_jaccard(g, 4, depth_config(GetParam()));
  ASSERT_EQ(r.score.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

INSTANTIATE_TEST_SUITE_P(Depths, PipelineDepth,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8}));

// --------------------------------------- virtual-time depth-2 equivalence ---

/// The pre-refactor Algorithm 3 loop, verbatim: a two-slot double buffer
/// driven directly against the fetcher (finish e_i; begin e_{i+1};
/// intersect e_i). The EdgePipeline at depth 2 must issue the identical
/// begin/finish/charge sequence, hence bit-identical virtual makespans.
double legacy_two_slot_makespan(const CSRGraph& g, std::uint32_t ranks,
                                const EngineConfig& config) {
  const graph::Partition partition(graph::PartitionKind::Block1D,
                                   g.num_vertices(), ranks);
  rma::Runtime::Options opts;
  opts.ranks = ranks;
  const auto run = rma::Runtime::run(opts, [&](rma::RankCtx& ctx) {
    const DistGraph dg = build_dist_graph(ctx, g, partition);
    AdjacencyFetcher fetcher(ctx, dg, config);
    const EdgeIndex m_local = dg.adjacencies.size();

    AdjacencyFetcher::Token current;
    bool have_current = false;
    if (m_local > 0) {
      current = fetcher.begin(dg.adjacencies[0]);
      have_current = true;
    }
    VertexId lv = 0;
    std::uint64_t sink = 0;
    for (EdgeIndex ei = 0; ei < m_local; ++ei) {
      while (dg.offsets[lv + 1] <= ei) ++lv;
      if (!have_current) current = fetcher.begin(dg.adjacencies[ei]);
      const auto adj_j = fetcher.finish(current);
      have_current = false;
      if (ei + 1 < m_local) {
        current = fetcher.begin(dg.adjacencies[ei + 1]);
        have_current = true;
      }
      const auto adj_v = dg.local_neighbors(lv);
      sink += intersect::count_common(adj_v, adj_j, config.method);
      ctx.charge_compute(
          config.cost.seconds(config.method, adj_v.size(), adj_j.size()));
    }
    EXPECT_GT(sink + 1, 0u);  // keep the loop observable
    ctx.barrier();
  });
  return run.makespan;
}

TEST(PipelineEquivalence, Depth2MakespanBitIdenticalToLegacyDoubleBuffer) {
  const CSRGraph g = rmat_graph(8, 8, 37);
  for (std::uint32_t ranks : {2u, 4u}) {
    EngineConfig cfg;  // pipeline_depth=2: the paper engine
    cfg.intersect_tier = intersect::Tier::Paper;  // the legacy loop's kernels
    const double engine = run_distributed_lcc(g, ranks, cfg).run.makespan;
    const double legacy = legacy_two_slot_makespan(g, ranks, cfg);
    EXPECT_EQ(engine, legacy) << "ranks=" << ranks;
  }
}

TEST(PipelineEquivalence, Depth2MakespanBitIdenticalToLegacyCached) {
  const CSRGraph g = rmat_graph(8, 8, 38);
  EngineConfig cfg;
  cfg.intersect_tier = intersect::Tier::Paper;  // the legacy loop's kernels
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 18);
  const double engine = run_distributed_lcc(g, 4, cfg).run.makespan;
  const double legacy = legacy_two_slot_makespan(g, 4, cfg);
  EXPECT_EQ(engine, legacy);
}

TEST(PipelineBehaviour, DeeperPipelineNeverSlower) {
  const CSRGraph g = rmat_graph(9, 16, 40);
  double prev = run_distributed_lcc(g, 4, depth_config(1)).run.makespan;
  for (std::size_t k : {2u, 4u, 8u}) {
    const double t = run_distributed_lcc(g, 4, depth_config(k)).run.makespan;
    EXPECT_LE(t, prev + 1e-12) << "depth " << k;
    prev = t;
  }
}

TEST(PipelineBehaviour, ResultsInvariantAcrossDepths) {
  const CSRGraph g = rmat_graph(9, 8, 41);
  const auto base = run_distributed_lcc(g, 4, depth_config(1));
  for (std::size_t k : {2u, 4u, 8u}) {
    const auto r = run_distributed_lcc(g, 4, depth_config(k));
    ASSERT_EQ(r.triangles, base.triangles) << "depth " << k;
    EXPECT_EQ(r.remote_edges, base.remote_edges) << "depth " << k;
  }
}

// ------------------------------------------------- fetcher ring contract ---

TEST(FetcherRing, RingSizeFollowsPipelineDepth) {
  const CSRGraph g = rmat_graph(7, 8, 42);
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              2);
  rma::Runtime::Options o;
  o.ranks = 2;
  rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
    const DistGraph dg = build_dist_graph(ctx, g, part);
    for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      const EngineConfig cfg = depth_config(k);
      AdjacencyFetcher fetcher(ctx, dg, cfg);
      EXPECT_EQ(fetcher.ring_size(), k);
    }
    ctx.barrier();
  });
}

TEST(FetcherRing, ZeroDepthRejected) {
  testsupport::use_threadsafe_death_tests();
  const CSRGraph g = rmat_graph(7, 8, 42);
  EXPECT_DEATH((void)run_distributed_lcc(g, 2, depth_config(0)),
               "pipeline_depth must be >= 1");
}

#ifndef NDEBUG
TEST(FetcherRing, FinishAfterSlotRecycleAbortsInDebug) {
  testsupport::use_threadsafe_death_tests();
  const CSRGraph g = rmat_graph(7, 8, 43);
  const graph::Partition part(graph::PartitionKind::Block1D, g.num_vertices(),
                              2);
  EXPECT_DEATH(
      {
        rma::Runtime::Options o;
        o.ranks = 2;
        rma::Runtime::run(o, [&](rma::RankCtx& ctx) {
          const DistGraph dg = build_dist_graph(ctx, g, part);
          const EngineConfig cfg = depth_config(2);  // ring of 2 slots
          AdjacencyFetcher fetcher(ctx, dg, cfg);
          // Find three remote, non-empty vertices and overfill the ring.
          std::vector<VertexId> remote;
          for (VertexId v = 0;
               v < g.num_vertices() && remote.size() < 3; ++v)
            if (part.owner(v) != ctx.rank() && g.degree(v) > 0)
              remote.push_back(v);
          ASSERT_EQ(remote.size(), 3u);
          const auto t0 = fetcher.begin(remote[0]);
          (void)fetcher.begin(remote[1]);
          (void)fetcher.begin(remote[2]);  // recycles t0's slot
          (void)fetcher.finish(t0);        // must trip the generation check
          ctx.barrier();
        });
      },
      "recycled");
}
#endif

// ------------------------------------------------- similarity analytics ---

TEST(Overlap, CompleteGraphClosedForm) {
  // K_6: |adj(u) ∩ adj(v)| = 4, min degree = 5 => O = 0.8 on every edge.
  const auto g = CSRGraph::from_edges(testsupport::complete_edges(6));
  const auto r = run_distributed_overlap(g, 3);
  ASSERT_EQ(r.score.size(), g.num_edges());
  for (double s : r.score) EXPECT_DOUBLE_EQ(s, 0.8);
}

TEST(AdamicAdar, CompleteGraphClosedForm) {
  // K_6: 4 common neighbors, each of degree 5 => AA = 4 / ln(5).
  const auto g = CSRGraph::from_edges(testsupport::complete_edges(6));
  const auto r = run_distributed_adamic_adar(g, 3);
  for (double s : r.score) EXPECT_DOUBLE_EQ(s, 4.0 / std::log(5.0));
}

class SimilarityRanks : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SimilarityRanks, OverlapMatchesReference) {
  const CSRGraph g = rmat_graph(8, 8, 44);
  const auto ref = reference_overlap(g);
  const auto r = run_distributed_overlap(g, GetParam());
  ASSERT_EQ(r.score.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

TEST_P(SimilarityRanks, AdamicAdarMatchesReference) {
  const CSRGraph g = rmat_graph(8, 8, 45);
  const auto ref = reference_adamic_adar(g);
  const auto r = run_distributed_adamic_adar(g, GetParam());
  ASSERT_EQ(r.score.size(), ref.size());
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

TEST_P(SimilarityRanks, AdamicAdarMatchesReferenceCachedAndDeep) {
  const CSRGraph g = rmat_graph(8, 8, 46);
  const auto ref = reference_adamic_adar(g);
  EngineConfig cfg = depth_config(4);
  cfg.use_cache = true;
  cfg.victim_policy = clampi::VictimPolicy::UserScore;
  cfg.cache_sizing =
      CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 4);
  const auto r = run_distributed_adamic_adar(g, GetParam(), cfg);
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

INSTANTIATE_TEST_SUITE_P(Ranks, SimilarityRanks,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(AdamicAdar, DirectedSinkContributesZero) {
  // Sinks have out-degree 0; common neighbors of out-degree < 2 weigh 0.
  const CSRGraph g = directed_with_sinks();
  const auto ref = reference_adamic_adar(g);
  const auto r = run_distributed_adamic_adar(g, 4);
  for (std::size_t k = 0; k < ref.size(); ++k)
    ASSERT_DOUBLE_EQ(r.score[k], ref[k]) << "slot " << k;
}

TEST(Similarity, OverlapDominatesJaccard) {
  // min(|A|,|B|) <= |A ∪ B| always, so O(u,v) >= J(u,v) edge-wise.
  const CSRGraph g = rmat_graph(9, 8, 47);
  const auto jac = run_distributed_jaccard(g, 2).score;
  const auto ovl = run_distributed_overlap(g, 2).score;
  ASSERT_EQ(jac.size(), ovl.size());
  for (std::size_t k = 0; k < jac.size(); ++k)
    EXPECT_GE(ovl[k] + 1e-15, jac[k]) << "slot " << k;
}

// ----------------------------------------- unified stats (satellite fix) ---

TEST(AnalyticStats, JaccardAggregatesSameCountersAsLcc) {
  // The unified driver must fill the full EdgeAnalyticStats block for every
  // analytic: historically Jaccard dropped offsets-cache stats and ignored
  // track_remote_reads.
  const CSRGraph g = rmat_graph(9, 8, 48);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 19);
  cfg.track_remote_reads = true;

  const auto lcc = run_distributed_lcc(g, 4, cfg);
  const auto jac = run_distributed_jaccard(g, 4, cfg);

  // Identical access pattern => identical comm/cache/remote-read counters.
  EXPECT_EQ(jac.remote_edges, lcc.remote_edges);
  EXPECT_EQ(jac.edges_processed, lcc.edges_processed);
  EXPECT_EQ(jac.offsets_cache_total.hits, lcc.offsets_cache_total.hits);
  EXPECT_GT(jac.offsets_cache_total.accesses(), 0u);
  EXPECT_EQ(jac.adj_cache_total.hits, lcc.adj_cache_total.hits);
  ASSERT_EQ(jac.remote_reads.size(), lcc.remote_reads.size());
  std::uint64_t sum = 0;
  for (std::size_t v = 0; v < jac.remote_reads.size(); ++v) {
    EXPECT_EQ(jac.remote_reads[v], lcc.remote_reads[v]) << "vertex " << v;
    sum += jac.remote_reads[v];
  }
  EXPECT_EQ(sum, jac.remote_edges);
}

TEST(AnalyticStats, SimilarityReportsRemoteEdgeFraction) {
  const CSRGraph g = rmat_graph(8, 8, 49);
  const auto r = run_distributed_overlap(g, 4);
  EXPECT_GT(r.remote_edge_fraction(), 0.0);
  EXPECT_LE(r.remote_edge_fraction(), 1.0);
}

// ------------------------------- aggregation audit (ISSUE 7 satellite) ---

/// Field-wise JSON sum of records (what the audit compares totals against:
/// going through to_json means a counter missing from operator+= but
/// present in the emitted record CANNOT cancel out).
template <typename T>
std::vector<std::pair<std::string, double>> summed_fields(
    const std::vector<T>& per_rank) {
  std::vector<std::pair<std::string, double>> sum;
  for (const T& r : per_rank) {
    const util::Json j = util::to_json(r);
    for (const auto& [key, val] : j.items()) {
      auto it = std::find_if(sum.begin(), sum.end(),
                             [&](const auto& kv) { return kv.first == key; });
      if (it == sum.end())
        sum.emplace_back(key, val.as_number());
      else
        it->second += val.as_number();
    }
  }
  return sum;
}

/// Assert the scenario-level totals equal the field-wise sums of the
/// per-rank records, for EVERY field the JSON emitters produce. This closes
/// the drop-a-counter bug class for segment fetches and anything added
/// later: a field emitted by to_json but skipped by operator+= (or by
/// absorb()) fails here for all analytics at once.
void expect_aggregation_consistent(const EdgeAnalyticStats& s,
                                   const char* analytic) {
  SCOPED_TRACE(analytic);
  const util::Json total = util::to_json(s.run.total());
  const auto sums = summed_fields(s.run.stats);
  ASSERT_EQ(total.items().size(), sums.size());
  for (const auto& [key, val] : total.items()) {
    const auto it = std::find_if(sums.begin(), sums.end(),
                                 [&](const auto& kv) { return kv.first == key; });
    ASSERT_NE(it, sums.end()) << "field " << key << " missing per rank";
    EXPECT_DOUBLE_EQ(val.as_number(), it->second) << "CommStats field " << key;
  }

  // Cache totals against the retained per-rank cache records.
  ASSERT_EQ(s.offsets_cache_ranks.size(), s.run.stats.size());
  ASSERT_EQ(s.adj_cache_ranks.size(), s.run.stats.size());
  const auto audit_cache = [&](const clampi::CacheStats& total_stats,
                               const std::vector<clampi::CacheStats>& ranks,
                               const char* which) {
    const util::Json jt = util::to_json(total_stats);
    const auto cs = summed_fields(ranks);
    ASSERT_EQ(jt.items().size(), cs.size()) << which;
    for (const auto& [key, val] : jt.items()) {
      // Derived ratios (hit_rate/miss_rate) are quotients of the additive
      // counters, not sums — the counters they derive from are audited.
      if (key.ends_with("_rate")) continue;
      const auto it = std::find_if(cs.begin(), cs.end(), [&](const auto& kv) {
        return kv.first == key;
      });
      ASSERT_NE(it, cs.end()) << which << " field " << key;
      EXPECT_DOUBLE_EQ(val.as_number(), it->second)
          << which << " field " << key;
    }
  };
  audit_cache(s.offsets_cache_total, s.offsets_cache_ranks, "offsets_cache");
  audit_cache(s.adj_cache_total, s.adj_cache_ranks, "adj_cache");
}

TEST(AnalyticStats, PerRankCountersSumToTotalsForEveryAnalytic) {
  const CSRGraph g = rmat_graph(8, 8, 50);
  EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing = CacheSizing::paper_default(g.num_vertices(), 1 << 18);
  cfg.hub_fraction = 0.1;  // hub_local_hits must survive aggregation too

  expect_aggregation_consistent(run_distributed_lcc(g, 4, cfg), "lcc");
  expect_aggregation_consistent(run_distributed_tc_result(g, 4, cfg, {}),
                                "tc");
  EngineConfig flat = cfg;
  flat.hub_fraction = 0.0;  // per-edge scores reject nothing else here
  expect_aggregation_consistent(run_distributed_jaccard(g, 4, flat),
                                "jaccard");
  expect_aggregation_consistent(run_distributed_overlap(g, 4, flat),
                                "overlap");
  expect_aggregation_consistent(run_distributed_adamic_adar(g, 4, flat),
                                "adamic_adar");

  // The streaming engine aggregates through the same absorb() across the
  // cold count and every batch (cached, hub replicas, several batches).
  stream::WorkloadConfig wl;
  wl.num_batches = 3;
  wl.batch_size = 32;
  wl.seed = 7;
  stream::StreamOptions sopts;
  sopts.engine = cfg;
  const stream::StreamResult streamed =
      stream::run_streaming_lcc(g, stream::generate_batches(g, wl), 4, sopts);
  expect_aggregation_consistent(streamed, "stream");
  EXPECT_EQ(streamed.busy_clocks.size(), 4u);
  EXPECT_GT(streamed.adj_cache_total.accesses(), 0u);

  // The segment-fetch path: Grid2D runs count segment_gets, which must
  // aggregate like every other counter (this is the exact drop-a-counter
  // scenario the audit exists for).
  const auto grid = run_distributed_lcc(g, 4, cfg, {},
                                        graph::PartitionKind::Grid2D);
  expect_aggregation_consistent(grid, "lcc_grid2d");
  EXPECT_GT(grid.run.total().segment_gets, 0u);
  const util::Json jt = util::to_json(grid.run.total());
  ASSERT_NE(jt.find("segment_gets"), nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(jt.find("segment_gets")->as_number()),
            grid.run.total().segment_gets);
}

TEST(AnalyticStats, ServeQueryStatsAggregateLikeEdgeAnalytics) {
  // QueryStats derives from EdgeAnalyticStats precisely so the audit above
  // runs on the serving layer unchanged: a counter added to CommStats or
  // CacheStats cannot silently drop out of QueryEngine's aggregation.
  const CSRGraph g = rmat_graph(8, 8, 61);
  serve::QueryWorkloadConfig wc;
  wc.num_epochs = 3;
  wc.queries_per_epoch = 32;
  wc.batch_size = 16;
  wc.seed = 5;
  const auto epochs = serve::generate_query_stream(g, wc);

  serve::ServeOptions opts;
  opts.engine.use_cache = true;
  opts.engine.cache_sizing = CacheSizing::paper_default(g.num_vertices(),
                                                        1 << 18);
  const serve::ServeResult res = serve::run_query_stream(g, epochs, 4, opts);
  expect_aggregation_consistent(res.stats, "serve");

  // The query-level dimension on top of the base block: identity and
  // latency accounting close over the stream...
  EXPECT_EQ(res.stats.submitted, 3u * 32u);
  EXPECT_EQ(res.stats.submitted, res.stats.answered + res.stats.rejected);
  EXPECT_EQ(res.stats.latencies.size(), res.stats.answered);
  EXPECT_EQ(res.stats.per_query.size(), res.stats.answered);
  for (const double l : res.stats.latencies) EXPECT_GE(l, 0.0);
  EXPECT_GE(res.stats.latency_percentile(99),
            res.stats.latency_percentile(50));

  // ...and with the hot cache off, every pipeline item belongs to exactly
  // one query, so the per-query cost records sum to the pipeline totals.
  std::uint64_t edges = 0;
  std::uint64_t remote = 0;
  for (const QueryCost& qc : res.stats.per_query) {
    edges += qc.edges_processed;
    remote += qc.remote_edges;
  }
  EXPECT_EQ(edges, res.stats.edges_processed);
  EXPECT_EQ(remote, res.stats.remote_edges);

  // Hot-cache totals are audited the same field-wise way as CLaMPI's
  // (to_json-based: a field added to HotCacheStats but missed by += fails).
  serve::ServeOptions hot = opts;
  hot.hot_cache.entries = 64;
  const serve::ServeResult hres =
      serve::run_query_stream(g, epochs, 4, hot);
  const util::Json jt = util::to_json(hres.hot_cache_total);
  const auto sums = summed_fields(hres.hot_cache_ranks);
  ASSERT_EQ(jt.items().size(), sums.size());
  for (const auto& [key, val] : jt.items()) {
    if (key.ends_with("_rate")) continue;
    const auto it = std::find_if(sums.begin(), sums.end(), [&](const auto& kv) {
      return kv.first == key;
    });
    ASSERT_NE(it, sums.end()) << "hot_cache field " << key;
    EXPECT_DOUBLE_EQ(val.as_number(), it->second)
        << "hot_cache field " << key;
  }
}

}  // namespace
}  // namespace atlc::core
