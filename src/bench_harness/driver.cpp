#include "bench_harness/driver.h"

#include <charconv>
#include <cstdio>
#include <cstring>

#include "bench_harness/json.h"
#include "bench_harness/tables.h"

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
      // The whole value must be a positive integer: "4x" is not 4.
      const std::string value = arg.substr(std::strlen("--jobs="));
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, args.jobs);
      if (ec != std::errc() || ptr != end || args.jobs < 1) {
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
  std::printf("%-4s %-5s %-6s %-6s %s\n", "id", "rows", "smoke", "param",
              "title");
  for (const SweepSpec& t : tables) {
    std::printf("%-4s %-5zu %-6zu %-6s %s\n", t.table.c_str(),
                t.rows.size(), t.smoke_rows.size(),
                t.param_name.empty() ? "-" : t.param_name.c_str(),
                t.title.c_str());
  }
}

}  // namespace

int sweep_main(const std::vector<std::string>& default_tables, int argc,
               char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.ok) return 2;

  const std::vector<SweepSpec> registry = builtin_tables();
  if (args.list) {
    print_list(registry);
    return 0;
  }

  const std::vector<std::string>& wanted =
      args.tables.empty() ? default_tables : args.tables;
  std::vector<SweepSpec> selected;
  if (wanted.empty()) {
    selected = registry;
  } else {
    for (const std::string& id : wanted) {
      const SweepSpec* spec = find_table(registry, id);
      if (spec == nullptr) {
        std::fprintf(stderr, "csca_sweep: unknown table id %s (see --list)\n",
                     id.c_str());
        return 2;
      }
      selected.push_back(*spec);
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
  return all_pass ? 0 : 1;
}

}  // namespace csca::bench
