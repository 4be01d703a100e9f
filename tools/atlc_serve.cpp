// atlc_serve — drive the resident query-serving layer (DESIGN.md §13) over
// a synthetic Zipf-skewed point-query stream interleaved with update
// batches, and report the serving metrics that matter at "millions of
// users" scale: virtual p50/p99 query latency, admission rejections and
// HotVertexCache hit rates, per epoch and in aggregate.
//
//   atlc_serve --rmat-scale 12 --ranks 8 --epochs 8 --queries-per-epoch 4096
//   atlc_serve --zipf 1.2 --hot-entries 4096 --batch-size 256
//   atlc_serve --input graph.txt --capacity 512 --stats-json out.json
//
// The graph input, engine flags, stats document and exit path are the
// shared front end (front_end.hpp); one --seed drives the generator, the
// relabel and the query traffic. Every number is virtual-time
// deterministic for a fixed seed: two runs with the same flags print
// byte-identical reports (the serve bench scenario and tests/test_serve.cpp
// pin that property down).
#include <cstdio>
#include <stdexcept>
#include <string>

#include "atlc/serve/query_engine.hpp"
#include "atlc/serve/workload.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/table.hpp"
#include "front_end.hpp"

namespace {

using namespace atlc;

/// The serving section of --stats-json, after the shared base keys.
util::Json serve_json(const serve::ServeResult& res) {
  util::Json doc = util::Json::object();
  const core::QueryStats& qs = res.stats;
  doc["submitted"] = qs.submitted;
  doc["answered"] = qs.answered;
  doc["rejected"] = qs.rejected;
  doc["latency_p50"] = qs.latency_percentile(50);
  doc["latency_p99"] = qs.latency_percentile(99);
  doc["build_makespan"] = res.build_makespan;
  doc["serve_makespan"] = res.serve_makespan;
  doc["edges_processed"] = qs.edges_processed;
  doc["remote_edges"] = qs.remote_edges;
  doc["hot_cache"] = util::to_json(res.hot_cache_total);
  util::Json epochs = util::Json::array();
  for (const serve::EpochOutcome& e : res.epochs) {
    util::Json je = util::Json::object();
    je["submitted"] = e.submitted;
    je["accepted"] = e.accepted;
    je["rejected"] = e.rejected;
    je["hot_hits"] = e.hot_hits;
    je["effective_insertions"] = e.effective_insertions;
    je["effective_deletions"] = e.effective_deletions;
    je["rows_rebuilt"] = e.rows_rebuilt;
    je["query_makespan"] = e.query_makespan;
    je["update_makespan"] = e.update_makespan;
    epochs.push_back(std::move(je));
  }
  doc["epochs"] = std::move(epochs);
  util::Json per_query = util::Json::array();
  for (const core::QueryCost& qc : qs.per_query) {
    util::Json jq = util::Json::object();
    jq["id"] = qc.id;
    jq["epoch"] = static_cast<std::uint64_t>(qc.epoch);
    jq["edges"] = qc.edges_processed;
    jq["remote_edges"] = qc.remote_edges;
    jq["seconds"] = qc.seconds;
    per_query.push_back(std::move(jq));
  }
  doc["per_query"] = std::move(per_query);
  return doc;
}

int run(const util::Cli& cli) {
  tools::Engine engine(cli, /*whole_rows=*/true);
  const tools::Graph loaded =
      tools::load_graph(cli, graph::Directedness::Undirected);
  const graph::CSRGraph& g = loaded.csr;
  if (g.directedness() == graph::Directedness::Directed)
    throw std::invalid_argument("serving needs an undirected graph");

  serve::QueryWorkloadConfig wc;
  wc.num_epochs = static_cast<std::size_t>(cli.get_int("epochs"));
  wc.queries_per_epoch =
      static_cast<std::size_t>(cli.get_int("queries-per-epoch"));
  wc.zipf_skew = cli.get_double("zipf");
  wc.topk = static_cast<std::uint32_t>(cli.get_int("topk"));
  wc.lcc_fraction = cli.get_double("lcc-frac");
  wc.common_fraction = cli.get_double("common-frac");
  wc.batch_size = static_cast<std::size_t>(cli.get_int("batch-size"));
  wc.insert_fraction = cli.get_double("insert-frac");
  wc.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto epochs = serve::generate_query_stream(g, wc);

  serve::ServeOptions opts;
  opts.engine = engine.config(loaded);
  opts.partition = engine.partition;
  opts.admission_capacity = static_cast<std::size_t>(cli.get_int("capacity"));
  opts.hot_cache.entries = static_cast<std::size_t>(cli.get_int("hot-entries"));
  opts.hot_cache.ways = static_cast<std::size_t>(cli.get_int("hot-ways"));
  const serve::ServeResult res =
      serve::run_query_stream(g, epochs, engine.ranks, opts);

  util::Table t({"epoch", "submitted", "accepted", "rejected", "hot hits",
                 "rows rebuilt", "query (s)", "update (s)"});
  for (std::size_t e = 0; e < res.epochs.size(); ++e) {
    const serve::EpochOutcome& eo = res.epochs[e];
    t.add_row({util::Table::fmt_int(e), util::Table::fmt_int(eo.submitted),
               util::Table::fmt_int(eo.accepted),
               util::Table::fmt_int(eo.rejected),
               util::Table::fmt_int(eo.hot_hits),
               util::Table::fmt_int(eo.rows_rebuilt),
               util::Table::fmt(eo.query_makespan, 5),
               util::Table::fmt(eo.update_makespan, 5)});
  }
  t.print("serving epochs (ranks=" + std::to_string(engine.ranks) + ")");

  const core::QueryStats& qs = res.stats;
  std::printf(
      "\nanswered %llu/%llu (%llu rejected) | virtual latency p50 %.3e s, "
      "p99 %.3e s\n",
      static_cast<unsigned long long>(qs.answered),
      static_cast<unsigned long long>(qs.submitted),
      static_cast<unsigned long long>(qs.rejected), qs.latency_percentile(50),
      qs.latency_percentile(99));
  std::printf(
      "hot cache: %.1f%% hit rate (%llu hits, %llu stale, %llu evictions) "
      "| pipeline: %llu edges, %.0f%% remote\n",
      100.0 * res.hot_cache_total.hit_rate(),
      static_cast<unsigned long long>(res.hot_cache_total.hits),
      static_cast<unsigned long long>(res.hot_cache_total.stale_misses),
      static_cast<unsigned long long>(res.hot_cache_total.evictions),
      static_cast<unsigned long long>(qs.edges_processed),
      100.0 * qs.remote_edge_fraction());
  std::printf("virtual makespan: build %.5f s + serve %.5f s\n",
              res.build_makespan, res.serve_makespan);
  engine.finish(qs, serve_json(res));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("atlc_serve",
                "always-on query serving: Zipf point queries interleaved "
                "with update batches");
  tools::add_graph_flags(cli, 10, 8,
                         "generator / relabeling / query-traffic seed");
  tools::add_engine_flags(cli, "block | cyclic | degree1d");
  // Workload.
  cli.add_int("epochs", "serving epochs (query burst + update batch)", 8);
  cli.add_int("queries-per-epoch", "point queries arriving per epoch", 1024);
  cli.add_double("zipf", "query traffic skew (0 = uniform)", 1.0);
  cli.add_int("topk", "k for the recommendation queries", 8);
  cli.add_double("lcc-frac", "fraction of queries that are lcc(v)", 0.5);
  cli.add_double("common-frac", "fraction that are topk_common(v, k)", 0.3);
  cli.add_int("batch-size", "updates per epoch batch (0 = queries only)",
              128);
  cli.add_double("insert-frac", "insert share of each update batch", 0.7);
  // Serving controls.
  cli.add_int("capacity", "admission queue bound per epoch", 1024);
  cli.add_int("hot-entries", "HotVertexCache slots (0 = off)", 1024);
  cli.add_int("hot-ways", "HotVertexCache bucket associativity", 4);
  if (!cli.parse(argc, argv)) return 1;
  return tools::run_tool("atlc_serve", [&] { return run(cli); });
}
