// scale — capacity scaling of the CSR graph store + pooled node state
// (docs/scale.md): one flood broadcast per row, up to 10^6 nodes.
//
// Two kinds of rows share one grid:
//
//   * smoke rows (small n): deterministic metrics only — events,
//     peak queue depth, bytes/node. They run in the ctest conformance
//     tier at any --jobs, so they must stay inside the byte-identical
//     JSON contract (no wall-clock fields).
//   * full rows (n >= 10^4): additionally report seconds and
//     events_per_sec for the run, and graph_build_seconds for the
//     make_family call before it. The 10^6-node grid row carries the
//     throughput floor — the capacity regression gate: its events/s
//     against the seed engine's replica on the engine table's
//     cache-resident flood_grid_1M storm, timed in the same row.
//
// bytes/node accounting (see docs/scale.md): three terms, each a heap
// size divided by n.
//
//   * state_bytes_per_node: the pooled per-node protocol state
//     (sim/process_store.h), bounded <= 64 on every row;
//   * graph_bytes_per_node: Graph::memory_bytes() (edge table, CSR
//     arrays, 32-bit offsets), bounded <= 72 on every grid row;
//   * engine_bytes_per_node: Network::memory_bytes() (the per-class
//     edge ledgers billed so far, finish times, FIFO clamp and channel
//     counts), reported unbounded.
//
// Together they account for the run's peak RSS: the 10^6-node grid
// row, the largest, checks that against the process peak it reads when
// it ends. The table is timed, so its rows run one at a time before any
// pooled row, and it is registered before the other timed tables
// (csca_sweep runs tables in registry order), so that peak is this
// row's own.
#include "bench_harness/table_common.h"
#include "bench_harness/tables.h"
#include "conn/flood.h"
#include "sim/network.h"

namespace csca::bench {

namespace {

// Full rows time wall-clock; everything below this n is a smoke row
// and reports deterministic metrics only.
constexpr int kTimedFloor = 10000;

// The 10^6-node flood, whose working set is ~100x the cache, must keep
// at least this multiple of the seed replica's events/s on the
// cache-resident ~2M-event storm (seed_storm_events_per_sec): big-n
// capacity may not cost event throughput. Both are timed in the row,
// so a slow stretch of the machine slows both; a slower Network step
// slows only the flood.
// Below the lowest (1.13) of 24 runs in EXPERIMENTS.md ("scale
// floor against the seed replica").
constexpr double kMinEventsPerSecVsSeed = 1.0;

// The graph store's budget on a grid (m ~ 2n): 16 B/edge of edge table
// + 8 B/arc of CSR + 4 B of offsets = 68 B/node, with a little slack
// for the edge table's reserved capacity.
constexpr double kGridGraphBytesPerNode = 72.0;

// The rows free everything between them, so the process peak at the
// end of the largest row is that row's footprint plus what no term
// counts: the binary and its libraries, the event queue's touched pages
// and allocator slack. That remainder must stay below this share of the
// peak, and the terms may not exceed the peak.
constexpr double kMaxUnaccountedShare = 0.10;

// The largest grid row: it carries the RSS accounting and the floor.
bool is_peak_row(const RowSpec& spec) {
  return spec.family == "grid" && spec.n >= 1000000;
}

// One flood on the row's graph. Sets eps to its events/s on full rows.
RowResult flood_row(const RowSpec& spec, double& eps) {
  RowResult out;
  // csca-analyze: allow(DET-2): graph build bracket, not simulation state
  const auto b0 = std::chrono::steady_clock::now();
  const Graph g = make_family(spec.family, spec.n, spec.seed);
  // csca-analyze: allow(DET-2): closes the graph build bracket above.
  const auto b1 = std::chrono::steady_clock::now();
  Network net(g,
              Network::ProcessStore::pooled<FloodProcess>(
                  g.node_count(),
                  [](NodeId v) { return FloodProcess(v, 0); }),
              make_exact_delay(), spec.seed);

  RunStats stats;
  const double secs = wall_seconds([&] { stats = net.run(); });

  const double n = static_cast<double>(g.node_count());
  add_metric(out, "nodes", n);
  add_metric(out, "events", static_cast<double>(stats.events));
  add_metric(out, "msgs", static_cast<double>(stats.total_messages()));
  add_metric(out, "peak_queue_depth",
             static_cast<double>(net.peak_queue_depth()));
  const double state_bpn =
      static_cast<double>(net.process_state_bytes()) / n;
  const double graph_bpn = static_cast<double>(g.memory_bytes()) / n;
  const double engine_bpn = static_cast<double>(net.memory_bytes()) / n;
  add_metric(out, "state_bytes_per_node", state_bpn);
  add_metric(out, "graph_bytes_per_node", graph_bpn);
  add_metric(out, "engine_bytes_per_node", engine_bpn);
  add_check(out, "state_bytes_per_node", state_bpn, 64.0, 1.0);
  if (spec.family == "grid") {
    add_check(out, "graph_bytes_per_node", graph_bpn, kGridGraphBytesPerNode,
              1.0);
  }

  if (spec.n >= kTimedFloor) {
    eps = per_sec(static_cast<double>(stats.events), secs);
    add_metric(out, "graph_build_seconds",
               std::chrono::duration<double>(b1 - b0).count());
    add_metric(out, "seconds", secs);
    add_metric(out, "events_per_sec", eps);
    if (is_peak_row(spec)) {
      const double peak_mib = peak_rss_mib();
      const double accounted_mib =
          (state_bpn + graph_bpn + engine_bpn) * n / (1 << 20);
      add_metric(out, "peak_rss_mib", peak_mib);
      add_check(out, "rss_accounted", accounted_mib, peak_mib, 1.0,
                1.0 - kMaxUnaccountedShare);
    }
  }
  return out;
}

RowResult run_row(const RowSpec& spec) {
  double eps = 0;
  RowResult out = flood_row(spec, eps);
  if (is_peak_row(spec)) {
    // Timed once the flood's graph and engine are freed, so the
    // replica's queue neither stacks on the row's peak nor raises the
    // process's. The row fails when eps / seed_eps drops below the
    // floor; the huge tolerance leaves the top side open.
    const double seed_eps = seed_storm_events_per_sec();
    add_metric(out, "seed_events_per_sec", seed_eps);
    add_check(out, "events_per_sec_floor", eps, seed_eps, 1e9,
              kMinEventsPerSecVsSeed);
  }
  return out;
}

}  // namespace

SweepSpec table_scale() {
  SweepSpec spec;
  spec.table = "scale";
  spec.title = "Capacity scaling - CSR graph store + pooled node state";
  spec.run = run_row;
  spec.timed = true;
  for (const int n : {10000, 100000, 1000000}) {
    spec.rows.push_back({"flood", "grid", n});
  }
  spec.rows.push_back({"flood", "cycle", 1000000});
  spec.rows.push_back({"flood", "mst_deep", 100000});
  for (const char* family : {"grid", "cycle", "mst_deep"}) {
    spec.smoke_rows.push_back({"flood", family, 256});
  }
  finalize_rows(spec);
  return spec;
}

}  // namespace csca::bench
