// The sweep front end: drives every registered table (the paper's
// F1-F9, S3-S5, A1 and the simulator's own fault, scale, timewarp,
// churn, engine and parallel tables; src/bench_harness/tables.h)
// through SweepRunner and writes one BENCH_<id>.json per table in the
// common schema.
//
//   csca_sweep                         # full sweep of every table
//   csca_sweep --smoke                 # the small-n conformance grids
//   csca_sweep --table=F3 --table=F4   # a subset, run in registry order
//   csca_sweep --jobs=4                # 1..kMaxWorkers pooled rows;
//                                      # output is byte-identical to
//                                      # --jobs=1
//   csca_sweep --out-dir=results       # where the JSON lands
//                                      # (default bench_out)
//   csca_sweep --list                  # print the table registry
//
// Timed tables (scale, timewarp, engine, parallel) run their rows one
// at a time before the pool starts. The last line is the process's
// peak RSS. Exit status: 0 when every bound check passes, 1 when any
// row fails or errors, 2 on bad usage.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "bench_harness/json.h"
#include "bench_harness/tables.h"
#include "par/run_pool.h"

namespace csca::bench {
namespace {

struct Args {
  std::vector<std::string> tables;
  std::string out_dir = "bench_out";
  int jobs = 1;
  bool smoke = false;
  bool list = false;
  bool ok = true;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--list") {
      args.list = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      // The whole value must be an integer in [1, kMaxWorkers]: "4x" is
      // not 4, and a million workers is not a request to honour.
      const std::string value = arg.substr(std::strlen("--jobs="));
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, args.jobs);
      if (ec != std::errc() || ptr != end || args.jobs < 1 ||
          args.jobs > kMaxWorkers) {
        std::fprintf(stderr, "csca_sweep: bad value for --jobs: \"%s\"\n",
                     value.c_str());
        args.ok = false;
      }
    } else if (arg.rfind("--table=", 0) == 0) {
      args.tables.push_back(arg.substr(std::strlen("--table=")));
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      args.out_dir = arg.substr(std::strlen("--out-dir="));
    } else {
      std::fprintf(stderr,
                   "csca_sweep: unknown argument %s\n"
                   "usage: [--table=ID]... [--smoke] [--jobs=N]"
                   " [--out-dir=PATH] [--list]\n",
                   arg.c_str());
      args.ok = false;
    }
  }
  return args;
}

void print_list(const std::vector<SweepSpec>& tables) {
  std::printf("%-9s %-5s %-6s %-6s %s\n", "id", "rows", "smoke", "param",
              "title");
  for (const SweepSpec& t : tables) {
    std::printf("%-9s %-5zu %-6zu %-6s %s\n", t.table.c_str(),
                t.rows.size(), t.smoke_rows.size(),
                t.param_name.empty() ? "-" : t.param_name.c_str(),
                t.title.c_str());
  }
}

int sweep_main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.ok) return 2;

  const std::vector<SweepSpec> registry = builtin_tables();
  if (args.list) {
    print_list(registry);
    return 0;
  }

  for (const std::string& id : args.tables) {
    if (find_table(registry, id) == nullptr) {
      std::fprintf(stderr, "csca_sweep: unknown table id %s (see --list)\n",
                   id.c_str());
      return 2;
    }
  }
  // Selected tables keep registry order, whatever the flag order: scale
  // then runs first among the timed tables, so its RSS check reads its
  // own peak.
  std::vector<SweepSpec> selected;
  for (const SweepSpec& spec : registry) {
    if (args.tables.empty() ||
        std::find(args.tables.begin(), args.tables.end(), spec.table) !=
            args.tables.end()) {
      selected.push_back(spec);
    }
  }

  SweepRunner runner({args.jobs, args.smoke});
  const std::vector<TableResult> results = runner.run_all(selected);

  bool all_pass = true;
  for (const TableResult& table : results) {
    const std::string path = write_table_json(args.out_dir, table);
    if (path.empty()) {
      std::fprintf(stderr, "csca_sweep: cannot write %s/BENCH_%s.json\n",
                   args.out_dir.c_str(), table.table.c_str());
      return 1;
    }
    const bool pass = table.pass();
    all_pass = all_pass && pass;
    std::printf("%-4s %-5s rows=%-3zu checks=%-3d failed=%-3d -> %s\n",
                table.table.c_str(), pass ? "PASS" : "FAIL",
                table.rows.size(), table.check_count(),
                table.failed_check_count(), path.c_str());
    if (!pass) {
      for (const RowResult& row : table.rows) {
        if (row.failed) {
          std::printf("  row %s: error: %s\n",
                      row.spec.name(table.param_name).c_str(),
                      row.error.c_str());
          continue;
        }
        for (const BoundCheck& check : row.checks) {
          if (!check.pass()) {
            std::printf(
                "  row %s: %s ratio %.4g outside [%.4g, %.4g]"
                " (measured %.6g, bound %.6g)\n",
                row.spec.name(table.param_name).c_str(), check.name.c_str(),
                check.ratio(), check.min_ratio, check.tolerance,
                check.measured, check.bound);
          }
        }
      }
    }
  }
  std::printf("peak_rss_mib=%.1f\n", peak_rss_mib());
  return all_pass ? 0 : 1;
}

}  // namespace
}  // namespace csca::bench

int main(int argc, char** argv) { return csca::bench::sweep_main(argc, argv); }
