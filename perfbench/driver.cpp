// perfbench_driver — the program perfbench/run.py times. Two commands:
//
//   perfbench_driver gen <workload> <seed> <dir>
//     Generates the workload's input from <seed> (R-MAT, written as a SNAP
//     text edge list) and its correctness oracle, into <dir>. It runs once
//     per benchmark invocation, in a process of its own, so the measured
//     processes' peak RSS covers only load -> solve.
//
//   perfbench_driver run <workload> <seed> <dir> [--trace]
//     One measured sample: load -> clean -> CSR (set-up), the one analytic
//     call (solve), the process's peak RSS, then the check against the
//     oracle, off the timed path. Prints one JSON object on stdout.
//     --trace binds EngineConfig::trace and reports the per-cause virtual
//     seconds MetricsRegistry aggregates from it.
//
// Shared settings: 4 simulated ranks, the default rma::NetworkModel and the
// default intersect::CostModel. CostModel::calibrate() is never called, so
// every virtual counter repeats bit-for-bit for a fixed seed.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "atlc/core/lcc.hpp"
#include "atlc/graph/clean.hpp"
#include "atlc/graph/dodg.hpp"
#include "atlc/graph/generators.hpp"
#include "atlc/graph/io.hpp"
#include "atlc/graph/reference.hpp"
#include "atlc/intersect/intersect.hpp"
#include "atlc/obs/metrics.hpp"
#include "atlc/obs/trace.hpp"
#include "atlc/serve/query_engine.hpp"
#include "atlc/serve/workload.hpp"
#include "atlc/stream/update.hpp"
#include "atlc/util/json.hpp"
#include "atlc/util/recorder.hpp"
#include "atlc/util/timer.hpp"

namespace {

using namespace atlc;
using graph::CSRGraph;
using graph::VertexId;

constexpr std::uint32_t kRanks = 4;
constexpr std::uint64_t kRelabelSeed = 1;  // as `atlc_run --input` cleans

enum class Kind { Tc, Lcc, Serve };

struct Workload {
  const char* name;
  Kind kind;
  unsigned scale;
  unsigned edge_factor;
};

constexpr Workload kWorkloads[] = {
    {"tc-rmat16", Kind::Tc, 16, 16},
    {"lcc-cached-rmat15", Kind::Lcc, 15, 16},
    {"serve-zipf-mixed", Kind::Serve, 14, 8},
};

const Workload& find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return w;
  throw std::runtime_error("perfbench: unknown workload '" +
                           std::string(name) + "'");
}

/// The serve workload's stream: 16 epochs of 1024 Zipf(1.2) queries in the
/// default lcc/common/Adamic-Adar mix (k=8), each closed by 2048 updates
/// (70% inserts). Every epoch draws its own popularity ranking: under one
/// ranking a fifth of all traffic goes to a single vertex, and where the
/// few hottest vertices land (their two-hop sizes, their owner ranks) would
/// set the run's cost; sixteen rankings average that out.
std::vector<serve::ServeEpoch> serve_stream(const CSRGraph& g,
                                            std::uint64_t seed) {
  constexpr std::size_t kEpochs = 16;
  serve::QueryWorkloadConfig wc;
  wc.num_epochs = kEpochs;
  wc.queries_per_epoch = 1024;
  wc.zipf_skew = 1.2;
  wc.topk = 8;
  wc.batch_size = 2048;
  wc.insert_fraction = 0.7;
  wc.seed = kEpochs * seed;
  std::vector<serve::ServeEpoch> epochs = serve::generate_query_stream(g, wc);
  wc.num_epochs = 1;
  wc.batch_size = 0;
  for (std::size_t e = 1; e < kEpochs; ++e) {
    wc.seed = kEpochs * seed + e;
    epochs[e].queries =
        std::move(serve::generate_query_stream(g, wc).front().queries);
  }
  return epochs;
}

/// Admission capacity equals the per-epoch query count, so no query is
/// rejected by construction; any rejection counts as a failure.
serve::ServeOptions serve_options(const CSRGraph& g) {
  serve::ServeOptions opts;
  opts.admission_capacity = 1024;
  opts.hot_cache = {.entries = 1024, .ways = 4};
  opts.engine.use_cache = true;
  opts.engine.cache_sizing =
      core::CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 2);
  return opts;
}

/// LCC configured as the paper and `atlc_run --cache` run it: both CLaMPI
/// windows, half the CSR bytes as budget, degree-score victim selection.
core::EngineConfig lcc_config(const CSRGraph& g) {
  core::EngineConfig cfg;
  cfg.use_cache = true;
  cfg.cache_sizing =
      core::CacheSizing::paper_default(g.num_vertices(), g.csr_bytes() / 2);
  cfg.victim_policy = clampi::VictimPolicy::UserScore;
  return cfg;
}

// ------------------------------------------------------------ files ------

std::string input_path(const std::string& dir) { return dir + "/graph.txt"; }
std::string oracle_path(const std::string& dir) { return dir + "/oracle.bin"; }

class BinFile {
 public:
  BinFile(const std::string& path, const char* mode)
      : path_(path), f_(std::fopen(path.c_str(), mode)) {
    if (f_ == nullptr)
      throw std::runtime_error("perfbench: cannot open " + path);
  }
  ~BinFile() { std::fclose(f_); }
  BinFile(const BinFile&) = delete;
  BinFile& operator=(const BinFile&) = delete;

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& v) {
    if (std::fwrite(&v, sizeof(T), 1, f_) != 1)
      throw std::runtime_error("perfbench: write failed on " + path_);
  }
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T v{};
    if (std::fread(&v, sizeof(T), 1, f_) != 1)
      throw std::runtime_error("perfbench: " + path_ + " is truncated");
    return v;
  }
  /// Surfaces buffered write errors, which fclose in the destructor cannot.
  void flush() {
    if (std::fflush(f_) != 0)
      throw std::runtime_error("perfbench: write failed on " + path_);
  }

 private:
  std::string path_;
  std::FILE* f_;
};

// ------------------------------------------------------------ set-up -----

struct Spans {
  util::Timer clock;
  util::Json list = util::Json::array();
  /// Times `fn` as one named wall-clock span; returns its seconds.
  template <typename F>
  double time(const char* name, F&& fn) {
    const double start = clock.elapsed_s();
    fn();
    const double end = clock.elapsed_s();
    util::Json s = util::Json::object();
    s["name"] = name;
    s["start_s"] = start;
    s["end_s"] = end;
    list.push_back(std::move(s));
    return end - start;
  }
};

struct Loaded {
  CSRGraph g;
  double load_s = 0.0, clean_s = 0.0, csr_s = 0.0;
};

/// The library's loading path, as `atlc_run --input` runs it.
Loaded load_graph(const std::string& path, Spans& spans) {
  Loaded out;
  graph::EdgeList edges;
  out.load_s = spans.time("load", [&] {
    edges = graph::load_edges(path, graph::Directedness::Undirected);
  });
  out.clean_s = spans.time("clean", [&] {
    graph::clean(edges, {.relabel_seed = kRelabelSeed});
  });
  out.csr_s =
      spans.time("csr", [&] { out.g = CSRGraph::from_edges(edges); });
  return out;
}

/// FNV-1a over the CSR arrays: ties an oracle to the exact graph it was
/// computed on, so a run on any other graph fails its check.
std::uint64_t graph_hash(const CSRGraph& g) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  };
  for (const auto o : g.offsets()) mix(o);
  for (const auto v : g.adjacencies()) mix(v);
  return h;
}

// ------------------------------------------------------------ oracles ----

/// Per-vertex triangle counts by single-threaded DODG enumeration: each
/// triangle is found once, at its (deg, id)-least arc, and credited to all
/// three corners.
std::vector<std::uint64_t> dodg_triangles(const CSRGraph& g) {
  const CSRGraph d = graph::orient_dodg(g);
  std::vector<std::uint64_t> t(g.num_vertices(), 0);
  for (VertexId u = 0; u < d.num_vertices(); ++u)
    for (const VertexId v : d.neighbors(u))
      intersect::for_each_common(d.neighbors(u), d.neighbors(v),
                                 [&](VertexId w) {
                                   ++t[u];
                                   ++t[v];
                                   ++t[w];
                                 });
  return t;
}

graph::EdgeList edge_list_of(const CSRGraph& g) {
  graph::EdgeList e(g.num_vertices(), {}, graph::Directedness::Undirected);
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (const VertexId v : g.neighbors(u)) e.add_edge(u, v);
  return e;
}

void put_answer(BinFile& f, const serve::QueryAnswer& a) {
  f.put(static_cast<std::uint8_t>(a.kind));
  f.put(a.v);
  f.put(std::bit_cast<std::uint64_t>(a.lcc));
  f.put(static_cast<std::uint32_t>(a.topk.size()));
  for (const serve::Recommendation& r : a.topk) {
    f.put(r.v);
    f.put(std::bit_cast<std::uint64_t>(r.score));
  }
}

/// Bit-for-bit comparison with the reference answer stored in `f`.
bool matches_answer(BinFile& f, const serve::QueryAnswer& a) {
  const auto kind = f.get<std::uint8_t>();
  const auto v = f.get<VertexId>();
  const auto lcc = f.get<std::uint64_t>();
  const auto n = f.get<std::uint32_t>();
  bool ok = !a.rejected && kind == static_cast<std::uint8_t>(a.kind) &&
            v == a.v && lcc == std::bit_cast<std::uint64_t>(a.lcc) &&
            n == a.topk.size();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto rv = f.get<VertexId>();
    const auto rs = f.get<std::uint64_t>();
    ok = ok && rv == a.topk[i].v &&
         rs == std::bit_cast<std::uint64_t>(a.topk[i].score);
  }
  return ok;
}

int cmd_gen(const Workload& w, std::uint64_t seed, const std::string& dir) {
  graph::save_text_edges(
      graph::generate_rmat({.scale = w.scale,
                            .edge_factor = w.edge_factor,
                            .seed = seed,
                            .directedness = graph::Directedness::Undirected}),
      input_path(dir));
  Spans spans;
  const CSRGraph g = load_graph(input_path(dir), spans).g;

  BinFile f(oracle_path(dir), "wb");
  f.put(static_cast<std::uint64_t>(g.num_vertices()));
  f.put(static_cast<std::uint64_t>(g.num_edges()));
  f.put(graph_hash(g));
  util::Timer oracle;
  if (w.kind == Kind::Serve) {
    // Replay the epochs on an edge list: epoch e's queries see batches
    // 0..e-1, the serving layer's epoch-consistency contract.
    const auto epochs = serve_stream(g, seed);
    graph::EdgeList evolved = edge_list_of(g);
    std::uint64_t queries = 0;
    for (const serve::ServeEpoch& e : epochs) queries += e.queries.size();
    f.put(queries);
    for (const serve::ServeEpoch& e : epochs) {
      // Zipf traffic repeats hot queries within an epoch; each distinct
      // query is answered once per snapshot.
      const CSRGraph snap = CSRGraph::from_edges(evolved);
      std::map<std::tuple<serve::QueryKind, VertexId, std::uint32_t>,
               serve::QueryAnswer>
          memo;
      for (const serve::Query& q : e.queries) {
        auto [it, fresh] = memo.try_emplace({q.kind, q.v, q.k});
        if (fresh) it->second = serve::answer_reference(snap, q);
        put_answer(f, it->second);
      }
      stream::apply_to_edge_list(evolved, e.updates);
    }
  } else {
    const std::vector<std::uint64_t> t = dodg_triangles(g);
    std::uint64_t sum = 0;
    for (const std::uint64_t x : t) sum += x;
    f.put(sum / 3);
    for (const std::uint64_t x : t) f.put(x);
  }
  util::Json out = util::Json::object();
  out["oracle_s"] = oracle.elapsed_s();
  f.flush();
  std::printf("%s\n", out.dump(-1).c_str());
  return 0;
}

// ------------------------------------------------------------ solve ------

/// Per-layer counters every workload reports. All are virtual-time or
/// count quantities, so a fixed seed must reproduce them bit-for-bit.
void put_engine_layers(util::Json& m, const core::EdgeAnalyticStats& s) {
  const rma::CommStats total = s.run.total();
  m["intersect.compute_virtual_s"] = total.compute_seconds;
  m["core.edges_processed"] = s.edges_processed;
  m["core.remote_edges"] = s.remote_edges;
  m["core.remote_edge_frac"] = s.remote_edge_fraction();
  m["core.imbalance"] = s.imbalance();
  m["core.makespan_virtual_s"] = s.run.makespan;
  m["rma.remote_gets"] = total.remote_gets;
  m["rma.remote_bytes"] = total.remote_bytes;
  m["rma.barriers"] = total.barriers;
  m["rma.comm_virtual_s"] = total.comm_seconds;
  m["clampi.adj_hit_rate"] = s.adj_cache_total.hit_rate();
  m["clampi.offsets_hit_rate"] = s.offsets_cache_total.hit_rate();
  m["clampi.adj_bytes_missed"] = s.adj_cache_total.bytes_missed;
  m["clampi.evictions_conflict"] = s.adj_cache_total.evictions_conflict +
                                   s.offsets_cache_total.evictions_conflict;
  m["clampi.insert_failures"] = s.adj_cache_total.insert_failures +
                                s.offsets_cache_total.insert_failures;
}

struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool global_ok = true;
  std::uint64_t queries = 0;  ///< answered queries, for queries_per_s
};

/// Compares one sample's outputs with the oracle in `dir`. Every per-vertex
/// result or answered query is one attempted operation, and so is the
/// global check (graph identity, then the global count or answer count).
Check verify(const Workload& w, const std::string& dir, const CSRGraph& g,
             const core::RunResult& run, const serve::ServeResult& served) {
  Check c;
  BinFile f(oracle_path(dir), "rb");
  const auto n = f.get<std::uint64_t>();
  const auto slots = f.get<std::uint64_t>();
  const auto hash = f.get<std::uint64_t>();
  c.global_ok = n == g.num_vertices() && slots == g.num_edges() &&
                hash == graph_hash(g);
  if (c.global_ok && w.kind == Kind::Serve) {
    c.global_ok = f.get<std::uint64_t>() == served.answers.size();
    for (std::size_t i = 0; c.global_ok && i < served.answers.size(); ++i) {
      ++c.attempted;
      if (!matches_answer(f, served.answers[i])) ++c.failed;
    }
    c.queries = served.stats.answered;
  } else if (c.global_ok) {
    c.global_ok = f.get<std::uint64_t>() == run.global_triangles;
    c.queries = w.kind == Kind::Tc ? 1 : g.num_vertices();
    // The engine's convention is edge-centric: an LCC run's triangles[v]
    // counts each triangle at v twice; the TC run's upper-triangle pass
    // counts it once.
    const std::uint64_t factor = w.kind == Kind::Lcc ? 2 : 1;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const std::uint64_t t = factor * f.get<std::uint64_t>();
      ++c.attempted;
      bool ok = run.triangles[v] == t;
      if (w.kind == Kind::Lcc)
        ok = ok && std::bit_cast<std::uint64_t>(run.lcc[v]) ==
                       std::bit_cast<std::uint64_t>(
                           graph::lcc_score(t, g.degree(v)));
      if (!ok) ++c.failed;
    }
  }
  ++c.attempted;
  if (!c.global_ok) ++c.failed;
  return c;
}

int cmd_run(const Workload& w, std::uint64_t seed, const std::string& dir,
            bool traced) {
  Spans spans;
  const Loaded loaded = load_graph(input_path(dir), spans);
  const CSRGraph& g = loaded.g;

  obs::TraceCollector trace;
  util::Json layers = util::Json::object();
  layers["graph.vertices"] = g.num_vertices();
  layers["graph.edge_slots"] = g.num_edges();

  core::RunResult run;
  serve::ServeResult served;
  double solve_s = 0.0;
  if (w.kind == Kind::Serve) {
    const auto epochs = serve_stream(g, seed);
    serve::ServeOptions opts = serve_options(g);
    if (traced) opts.engine.trace = &trace;
    const serve::QueryEngine engine(g, opts);
    solve_s =
        spans.time("solve", [&] { served = engine.run(epochs, kRanks); });
  } else if (w.kind == Kind::Lcc) {
    core::EngineConfig cfg = lcc_config(g);
    if (traced) cfg.trace = &trace;
    solve_s = spans.time(
        "solve", [&] { run = core::run_distributed_lcc(g, kRanks, cfg); });
  } else {
    core::EngineConfig cfg;
    if (traced) cfg.trace = &trace;
    solve_s = spans.time("solve", [&] {
      run = core::run_distributed_tc_result(g, kRanks, cfg);
    });
  }
  // Before the check allocates anything: the peak of load -> solve.
  const double peak_rss_mb =
      static_cast<double>(util::peak_rss_bytes()) / (1024.0 * 1024.0);

  Check check;
  spans.time("verify", [&] { check = verify(w, dir, g, run, served); });

  if (w.kind == Kind::Serve) {
    put_engine_layers(layers, served.stats);
    const core::QueryStats& qs = served.stats;
    layers["serve.answered"] = qs.answered;
    layers["serve.rejected"] = qs.rejected;
    layers["serve.hot_hit_rate"] = served.hot_cache_total.hit_rate();
    layers["serve.hot_stale"] = served.hot_cache_total.stale_misses;
    layers["serve.p50_virtual_s"] = qs.latency_percentile(50);
    layers["serve.p99_virtual_s"] = qs.latency_percentile(99);
    std::uint64_t effective = 0, rebuilt = 0;
    for (const serve::EpochOutcome& e : served.epochs) {
      effective += e.effective_insertions + e.effective_deletions;
      rebuilt += e.rows_rebuilt;
    }
    layers["stream.effective_updates"] = effective;
    layers["stream.rows_rebuilt"] = rebuilt;
  } else {
    put_engine_layers(layers, run);
    for (const char* name :
         {"serve.answered", "serve.rejected", "serve.hot_hit_rate",
          "serve.hot_stale", "serve.p50_virtual_s", "serve.p99_virtual_s",
          "stream.effective_updates", "stream.rows_rebuilt"})
      layers[name] = 0;
  }

  util::Json out = util::Json::object();
  util::Json wall = util::Json::object();
  wall["load_s"] = loaded.load_s;
  wall["clean_s"] = loaded.clean_s;
  wall["csr_s"] = loaded.csr_s;
  wall["setup_s"] = loaded.load_s + loaded.clean_s + loaded.csr_s;
  wall["solve_s"] = solve_s;
  out["wall"] = std::move(wall);
  out["peak_rss_mb"] = peak_rss_mb;
  out["queries"] = check.queries;
  out["attempted"] = check.attempted;
  out["failed"] = check.failed;
  out["global_ok"] = check.global_ok;
  out["layers"] = std::move(layers);
  if (traced) {
    // Per-cause virtual seconds, summed over ranks.
    obs::MetricsRegistry reg;
    reg.ingest(trace);
    util::Json causes = util::Json::object();
    for (const auto& [cause, per_rank] : reg.cause_seconds()) {
      double sum = 0.0;
      for (const double s : per_rank) sum += s;
      causes[cause] = sum;
    }
    out["causes"] = std::move(causes);
  }
  out["spans"] = std::move(spans.list);
  std::printf("%s\n", out.dump(-1).c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver gen <workload> <seed> <dir>\n"
               "       perfbench_driver run <workload> <seed> <dir> "
               "[--trace]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string_view cmd = argv[1];
  try {
    const Workload& w = find_workload(argv[2]);
    const std::uint64_t seed = std::stoull(argv[3]);
    const std::string dir = argv[4];
    if (cmd == "gen" && argc == 5) return cmd_gen(w, seed, dir);
    const bool traced = argc == 6 && std::string_view(argv[5]) == "--trace";
    if (cmd == "run" && (argc == 5 || traced))
      return cmd_run(w, seed, dir, traced);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  return usage();
}
