// Micro-kernels behind Table III / Fig. 6: the raw intersection kernels
// across list-length ratios, the Eq. (3) hybrid rule's selection quality,
// and the OpenMP-parallel variants. Complements the whole-graph numbers in
// the table3 scenario with per-kernel timings under the LibLSB recorder
// (this scenario used to require Google Benchmark; it now runs everywhere).
// Wall-clock metrics: host-dependent, never gated.
//
// `--wall` adds the tiered-kernel wall-clock section (DESIGN.md §9): scalar
// SSI/binary vs the Tiered generation (row bitmap, galloping, branch-reduced
// merge) on hub-shaped workloads, emitting both raw timings and
// `speedup/...` ratios in the JSON record. CI's bench-wall-smoke step runs
// it and asserts the speedup fields exist without gating their values.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "atlc/intersect/intersect.hpp"
#include "atlc/intersect/parallel.hpp"
#include "atlc/intersect/tiered.hpp"
#include "atlc/util/rng.hpp"
#include "scenario.hpp"

namespace {

using namespace atlc;
using V = std::vector<intersect::VertexId>;

V sorted_unique(std::size_t len, std::uint32_t universe, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  V v;
  v.reserve(len * 2);
  for (std::size_t i = 0; i < len * 2 && v.size() < len * 2; ++i)
    v.push_back(static_cast<intersect::VertexId>(rng.next_below(universe)));
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  if (v.size() > len) v.resize(len);
  return v;
}

/// Keys per second for one (kernel, |A|, ratio) cell, timed over enough
/// inner iterations that the recorder's samples are not timer-bound.
template <typename Fn>
double throughput(bench::ScenarioContext& ctx, const V& a, const V& b,
                  std::uint64_t elems_per_call, Fn&& fn) {
  util::Recorder rec(ctx.smoke
                         ? util::Recorder::Options{.min_reps = 2,
                                                   .max_reps = 3,
                                                   .ci_fraction = 0.3}
                         : util::Recorder::Options{.min_reps = 3,
                                                   .max_reps = 10,
                                                   .ci_fraction = 0.10});
  const int inner = ctx.smoke ? 8 : 32;
  volatile std::uint64_t sink = 0;
  const auto summary = rec.run_until_ci([&] {
    std::uint64_t total = 0;
    for (int i = 0; i < inner; ++i) total += fn(a, b);
    sink = sink + total;
  });
  (void)sink;
  return static_cast<double>(elems_per_call) * inner /
         (summary.median * 1e6);  // elements per microsecond
}

void add_flags(util::Cli& cli) {
  cli.add_flag("wall",
               "time the scalar vs tiered kernels on host hardware and "
               "report wall-clock speedups (never gated)",
               false);
}

/// Median wall seconds of fn() (scalar work must defeat DCE via the sink).
template <typename Fn>
double median_seconds(bench::ScenarioContext& ctx, Fn&& fn) {
  util::Recorder rec(ctx.smoke
                         ? util::Recorder::Options{.min_reps = 3,
                                                   .max_reps = 5,
                                                   .ci_fraction = 0.3}
                         : util::Recorder::Options{.min_reps = 5,
                                                   .max_reps = 20,
                                                   .ci_fraction = 0.10});
  volatile std::uint64_t sink = 0;
  const auto summary = rec.run_until_ci([&] { sink = sink + fn(); });
  (void)sink;
  return summary.median;
}

/// The --wall section: scalar SSI vs the tiered kernels on the shapes each
/// tier serves. The hub case models one pipeline window of a hub row's
/// edges: the row bitmap is built once and probed by every neighbor list,
/// exactly the reuse the engine gets (DESIGN.md §9).
void run_wall(bench::ScenarioContext& ctx) {
  const std::size_t hub_len = ctx.smoke ? 4096 : 16384;
  const std::size_t probe_len = ctx.smoke ? 256 : 512;
  const std::size_t probes = ctx.smoke ? 16 : 64;
  const std::uint32_t universe = 1u << 22;

  const V hub = sorted_unique(hub_len, universe, 11 + ctx.seed);
  std::vector<V> lists;
  for (std::size_t i = 0; i < probes; ++i)
    lists.push_back(sorted_unique(probe_len, universe, 100 + i + ctx.seed));

  util::Table t({"Workload", "scalar (us)", "tiered (us)", "speedup",
                 "tiered kernel"});
  const auto report = [&](const char* workload, const char* kernel,
                          double scalar_s, double tiered_s) {
    const double speedup = tiered_s > 0.0 ? scalar_s / tiered_s : 0.0;
    for (const auto& [leg, v] :
         {std::pair<const char*, double>{"scalar_us", scalar_s * 1e6},
          {"tiered_us", tiered_s * 1e6}}) {
      const std::string metric =
          std::string("wall/") + workload + "/" + leg;
      ctx.rec.declare_metric(metric, {.unit = "us",
                                      .direction = "lower",
                                      .expect_deterministic = false});
      ctx.rec.add_trial(metric, v);
    }
    const std::string metric = std::string("speedup/") + workload;
    ctx.rec.declare_metric(metric, {.unit = "x",
                                    .direction = "higher",
                                    .expect_deterministic = false});
    ctx.rec.add_trial(metric, speedup);
    t.add_row({workload, util::Table::fmt(scalar_s * 1e6, 1),
               util::Table::fmt(tiered_s * 1e6, 1),
               util::Table::fmt(speedup, 2), kernel});
    return speedup;
  };

  // Hub rows: one bitmap build amortised over the window's probe lists.
  const double hub_scalar = median_seconds(ctx, [&] {
    std::uint64_t total = 0;
    for (const V& b : lists) total += intersect::count_ssi(hub, b);
    return total;
  });
  const double hub_tiered = median_seconds(ctx, [&] {
    intersect::RowBitmap bm;
    bm.build(hub, universe);
    std::uint64_t total = 0;
    for (const V& b : lists) total += bm.count_in(b);
    return total;
  });
  const double hub_speedup =
      report("hub_bitmap_vs_ssi", "bitmap", hub_scalar, hub_tiered);

  // Skewed pairs: galloping vs the scalar binary kernel the hybrid rule
  // would pick at this ratio.
  const V skew_small = sorted_unique(probe_len, universe, 7 + ctx.seed);
  const double skew_scalar = median_seconds(ctx, [&] {
    return intersect::count_binary(skew_small, hub);
  });
  const double skew_tiered = median_seconds(ctx, [&] {
    return intersect::count_gallop(skew_small, hub);
  });
  report("skew_gallop_vs_binary", "gallop", skew_scalar, skew_tiered);

  // Balanced long tail: branch-reduced merge vs scalar SSI.
  const V bal_a = sorted_unique(hub_len, universe, 5 + ctx.seed);
  const double bal_scalar = median_seconds(ctx, [&] {
    return intersect::count_ssi(bal_a, hub);
  });
  const double bal_tiered = median_seconds(ctx, [&] {
    return intersect::count_merge_vec(bal_a, hub);
  });
  report("tail_merge_vs_ssi", "merge_vec", bal_scalar, bal_tiered);

  t.print("wall: scalar vs tiered kernels (host hardware, never gated)");
  ctx.rec.add_table("wall: scalar vs tiered kernels", t);

  char note[160];
  std::snprintf(note, sizeof(note),
                "wall check: bitmap vs scalar SSI on hub-sized rows = "
                "%.2fx (target >= 2x, reported not gated)",
                hub_speedup);
  std::printf("%s\n", note);
  ctx.rec.add_note(note);
}

void run(bench::ScenarioContext& ctx) {
  std::vector<int> lengths = {64, 1024, 16384};
  std::vector<int> ratios = {1, 8, 64};
  if (ctx.smoke) {
    lengths = {64, 1024};
    ratios = {1, 8};
  }

  util::Table table({"|A|", "|B|/|A|", "SSI (Melem/s)", "Binary (Melem/s)",
                     "Hybrid (Melem/s)", "hybrid picks"});
  for (int len : lengths) {
    for (int ratio : ratios) {
      const auto a = sorted_unique(static_cast<std::size_t>(len), 1u << 24,
                                   1 + ctx.seed);
      const auto b =
          sorted_unique(static_cast<std::size_t>(len) * ratio, 1u << 24,
                        2 + ctx.seed);
      const std::uint64_t both = a.size() + b.size();
      const double ssi = throughput(ctx, a, b, both,
                                    [](const V& x, const V& y) {
                                      return intersect::count_ssi(x, y);
                                    });
      const double binary = throughput(ctx, a, b, a.size(),
                                       [](const V& x, const V& y) {
                                         return intersect::count_binary(x, y);
                                       });
      const double hybrid = throughput(ctx, a, b, both,
                                       [](const V& x, const V& y) {
                                         return intersect::count_hybrid(x, y);
                                       });
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%dx%d", len, ratio);
      const std::string key = cell;
      for (const auto& [label, perf] :
           {std::pair<const char*, double>{"ssi", ssi},
            {"binary", binary},
            {"hybrid", hybrid}}) {
        const std::string metric = "elems_per_us/" + key + "/" + label;
        ctx.rec.declare_metric(metric, {.unit = "elems/us",
                                        .direction = "higher",
                                        .expect_deterministic = false});
        ctx.rec.add_trial(metric, perf);
      }
      // The kernel Eq. (3) selects for this shape, to read against the
      // two measured throughputs.
      const char* picks = intersect::prefer_ssi(a.size(), b.size())
                              ? "ssi-side"
                              : "binary-side";
      table.add_row({util::Table::fmt_int(static_cast<std::uint64_t>(len)),
                     util::Table::fmt_int(static_cast<std::uint64_t>(ratio)),
                     util::Table::fmt(ssi, 2), util::Table::fmt(binary, 2),
                     util::Table::fmt(hybrid, 2), picks});
    }
  }
  table.print("micro: raw intersection kernels across |B|/|A| ratios");
  ctx.rec.add_table("micro: raw intersection kernels", table);

  // Parallel variants (balanced for SSI, skewed for binary) + the
  // upper-triangle trimming kernel (paper Section II-C de-duplication).
  {
    util::Table t({"Kernel", "threads", "Melem/s"});
    const auto a = sorted_unique(ctx.smoke ? 1 << 12 : 1 << 16, 1u << 24,
                                 1 + ctx.seed);
    const auto b = sorted_unique(ctx.smoke ? 1 << 14 : 1 << 18, 1u << 24,
                                 2 + ctx.seed);
    for (int threads : {1, 2}) {
      const intersect::ParallelConfig cfg{.num_threads = threads,
                                          .cutoff = 0};
      const double perf = throughput(
          ctx, a, b, a.size() + b.size(), [&cfg](const V& x, const V& y) {
            return intersect::count_ssi_parallel(x, y, cfg);
          });
      const std::string metric =
          "elems_per_us/ssi_parallel/t" + std::to_string(threads);
      ctx.rec.declare_metric(metric, {.unit = "elems/us",
                                      .direction = "higher",
                                      .expect_deterministic = false});
      ctx.rec.add_trial(metric, perf);
      t.add_row({"ssi_parallel", std::to_string(threads),
                 util::Table::fmt(perf, 2)});
    }
    const double above = throughput(
        ctx, a, b, a.size() + b.size(), [](const V& x, const V& y) {
          return intersect::count_common_above(x, y, 1u << 23);
        });
    t.add_row({"count_common_above", "1", util::Table::fmt(above, 2)});
    t.print("micro: parallel + upper-triangle kernels");
    ctx.rec.add_table("micro: parallel + upper-triangle kernels", t);
  }

  if (ctx.cli.get_flag("wall")) run_wall(ctx);
}

}  // namespace

ATLC_REGISTER_SCENARIO(micro_intersect, "micro_intersect", "Table III / Fig. 6",
                       "raw intersection kernel microbenchmarks (--wall adds "
                       "scalar vs tiered host timings)",
                       add_flags, run)
