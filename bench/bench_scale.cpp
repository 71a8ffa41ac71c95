// Capacity-scaling bench front end: drives the registered `scale`
// table (src/bench_harness/tables/scale.cpp) through the shared
// SweepRunner at jobs=1 — the full rows time wall-clock throughput, so
// concurrent rows would corrupt the measurement — writes
// BENCH_scale.json, and prints the capacity summary the table's JSON
// cannot carry: the process peak RSS (getrusage), which bounds the
// whole sweep including the 10^6-node rows. On the full sweep it also
// checks that the largest row's graph + engine + state bytes account
// for that peak (docs/scale.md, "Where the bytes go").
//
// Usage: bench_scale [--smoke] [--out-dir=PATH]
//   --smoke        small-n deterministic rows; used by tools/check.sh
//   --out-dir=PATH where BENCH_scale.json lands (default bench_out)
#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_harness/json.h"
#include "bench_harness/sweep.h"
#include "bench_harness/tables.h"

namespace {

// The rows run one at a time and free everything between them, so the
// process peak is the largest row's footprint plus what no term counts:
// the binary and its libraries, the event queue's touched pages and
// allocator slack. That remainder must stay below this share of the
// peak, and the terms may not exceed the peak.
constexpr double kMaxUnaccountedShare = 0.10;

bool check_accounting(const csca::bench::TableResult& table,
                      double peak_mib) {
  double best_mib = 0;
  std::string best_row;
  for (const csca::bench::RowResult& row : table.rows) {
    const double bytes_per_node = row.metric("graph_bytes_per_node") +
                                  row.metric("engine_bytes_per_node") +
                                  row.metric("state_bytes_per_node");
    const double mib = bytes_per_node * row.metric("nodes") / (1 << 20);
    if (mib > best_mib) {
      best_mib = mib;
      best_row = row.spec.name(table.param_name);
    }
  }
  const double unaccounted = (peak_mib - best_mib) / peak_mib;
  std::printf("accounted_mib=%.1f (%s: graph + engine + state) "
              "unaccounted_share=%.3f\n",
              best_mib, best_row.c_str(), unaccounted);
  if (unaccounted < 0 || unaccounted > kMaxUnaccountedShare) {
    std::fprintf(stderr,
                 "bench_scale: peak RSS %.1f MiB is not accounted for by "
                 "%s's %.1f MiB within [0, %.2f]\n",
                 peak_mib, best_row.c_str(), best_mib, kMaxUnaccountedShare);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csca::bench;
  bool smoke = false;
  std::string out_dir = "bench_out";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else {
      std::fprintf(stderr, "usage: bench_scale [--smoke] [--out-dir=PATH]\n");
      return 2;
    }
  }

  const std::vector<SweepSpec> registry = builtin_tables();
  const SweepSpec* spec = find_table(registry, "scale");
  if (spec == nullptr) {
    std::fprintf(stderr, "bench_scale: table 'scale' not registered\n");
    return 1;
  }

  const SweepRunner runner({/*jobs=*/1, smoke});
  const TableResult table = runner.run(*spec);
  for (const RowResult& row : table.rows) {
    std::printf("%-24s events=%-9.0f peak_queue=%-8.0f "
                "state_B/node=%-6.2f graph_B/node=%-8.2f "
                "engine_B/node=%-6.2f",
                row.spec.name(table.param_name).c_str(),
                row.metric("events"), row.metric("peak_queue_depth"),
                row.metric("state_bytes_per_node"),
                row.metric("graph_bytes_per_node"),
                row.metric("engine_bytes_per_node"));
    // Smoke rows are deterministic-only (no wall-clock fields).
    const double eps = row.metric("events_per_sec");
    if (eps > 0) {
      std::printf("  build_s=%.3f ev/s=%.0f",
                  row.metric("graph_build_seconds"), eps);
    }
    std::printf("\n");
  }

  bool accounted = true;
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in KiB.
    const double peak_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::printf("peak_rss_mib=%.1f\n", peak_mib);
    if (!smoke) accounted = check_accounting(table, peak_mib);
  }

  const std::string path = write_table_json(out_dir, table);
  if (path.empty()) {
    std::fprintf(stderr, "bench_scale: cannot write %s/BENCH_scale.json\n",
                 out_dir.c_str());
    return 1;
  }
  std::printf("%s -> %s\n", table.pass() ? "PASS" : "FAIL", path.c_str());
  if (!table.pass()) {
    for (const RowResult& row : table.rows) {
      if (row.failed) {
        std::fprintf(stderr, "bench_scale: row %s: error: %s\n",
                     row.spec.name(table.param_name).c_str(),
                     row.error.c_str());
        continue;
      }
      for (const BoundCheck& check : row.checks) {
        if (!check.pass()) {
          std::fprintf(stderr,
                       "bench_scale: row %s: %s ratio %.4g outside "
                       "[%.4g, %.4g] (measured %.6g, bound %.6g)\n",
                       row.spec.name(table.param_name).c_str(),
                       check.name.c_str(), check.ratio(), check.min_ratio,
                       check.tolerance, check.measured, check.bound);
        }
      }
    }
    return 1;
  }
  return accounted ? 0 : 1;
}
