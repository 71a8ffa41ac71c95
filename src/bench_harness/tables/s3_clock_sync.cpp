// S3 — §3 (clock synchronization): measured pulse delay of alpha*,
// beta*, gamma* on heavy-chord networks where d << W — the regime the
// section is about.
//
//   alpha*: pulse delay Theta(W)          (stalls on the heavy chords)
//   beta*:  pulse delay Theta(tree depth) (>= script-D)
//   gamma*: pulse delay O(d log^2 n)      (the §3 headline)
//
// The W sweep is the shape column: gamma*'s max_gap is checked against
// d log^2 n and must NOT grow with W, while alpha*'s is checked against
// W itself.
#include "bench_harness/table_common.h"
#include "bench_harness/tables.h"
#include "graph/shortest_paths.h"
#include "partition/tree_edge_cover.h"
#include "sync/clock_sync.h"

namespace csca::bench {

namespace {

RowResult run_row(const RowSpec& spec) {
  RowResult out;
  const auto heavy = static_cast<Weight>(spec.param);
  const Graph g = heavy_chords_graph(spec.n, heavy);
  const NetworkMeasures m = measure(g);
  const int pulses = 8;

  ClockSyncRun run;
  double bound = 0;
  double tolerance = 1.5;
  if (spec.algo == "alpha") {
    run = run_clock_alpha(g, pulses, make_exact_delay());
    bound = static_cast<double>(m.W);
  } else if (spec.algo == "beta") {
    const auto tree = dijkstra(g, 0).tree(g);
    run = run_clock_beta(g, tree, pulses, make_exact_delay());
    // One downcast + one upcast over the BFS tree per pulse.
    bound = 2.0 * static_cast<double>(tree.height(g));
    tolerance = 2.0;
  } else {
    const auto cover = build_tree_edge_cover(g);
    run = run_clock_gamma(g, cover, pulses, make_exact_delay());
    const double logn = log2n(m.n);
    bound = static_cast<double>(m.d) * logn * logn;
  }
  report_stats(out, m, run.stats);
  add_metric(out, "max_gap", run.max_gap);
  add_metric(out, "mean_gap", run.mean_gap);
  add_metric(out, "gap_over_d", run.max_gap / static_cast<double>(m.d));
  add_metric(out, "gap_over_W", run.max_gap / static_cast<double>(m.W));
  add_metric(out, "cost_per_pulse", run.cost_per_pulse);
  add_check(out, "gap_over_bound", run.max_gap, bound, tolerance);
  return out;
}

}  // namespace

SweepSpec table_s3_clock_sync() {
  SweepSpec spec;
  spec.table = "S3";
  spec.title = "Section 3 - clock synchronization pulse delay";
  spec.param_name = 'W';
  spec.run = run_row;
  for (const int heavy : {64, 256, 1024, 4096}) {
    for (const char* algo : {"alpha", "beta", "gamma"}) {
      spec.rows.push_back(
          {algo, "heavy_chords", 24, static_cast<double>(heavy)});
    }
  }
  for (const char* algo : {"alpha", "beta", "gamma"}) {
    spec.smoke_rows.push_back({algo, "heavy_chords", 12, 64.0});
  }
  finalize_rows(spec);
  return spec;
}

}  // namespace csca::bench
