#include "bench_harness/sweep.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

#include "par/run_pool.h"
#include "util/rng.h"

namespace csca::bench {

namespace {

// %g mirrors the JSON renderer so param values hash and print the same.
std::string format_param(double param) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", param);
  return buf;
}

}  // namespace

std::string RowSpec::name(const std::string& param_name) const {
  std::string out = algo;
  if (!family.empty()) out += "/" + family;
  out += "/n=" + std::to_string(n);
  if (!param_name.empty()) out += "/" + param_name + "=" + format_param(param);
  return out;
}

bool RowResult::pass() const {
  if (failed) return false;
  for (const BoundCheck& c : checks) {
    if (!c.pass()) return false;
  }
  return true;
}

bool TableResult::pass() const {
  for (const RowResult& r : rows) {
    if (!r.pass()) return false;
  }
  return true;
}

int TableResult::check_count() const {
  int out = 0;
  for (const RowResult& r : rows) out += static_cast<int>(r.checks.size());
  return out;
}

int TableResult::failed_check_count() const {
  int out = 0;
  for (const RowResult& r : rows) {
    if (r.failed) ++out;
    for (const BoundCheck& c : r.checks) {
      if (!c.pass()) ++out;
    }
  }
  return out;
}

std::uint64_t row_seed(const std::string& table, const RowSpec& spec) {
  // Chained splitmix64 finalizer over the identity string: stable across
  // platforms and runs, decorrelated for adjacent rows.
  const std::string key = table + "/" + spec.algo + "/" + spec.family +
                          "/n=" + std::to_string(spec.n) +
                          "/p=" + format_param(spec.param);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const char c : key) {
    h = mix64(h ^ static_cast<unsigned char>(c));
  }
  return h;
}

void finalize_rows(SweepSpec& spec) {
  for (RowSpec& row : spec.rows) row.seed = row_seed(spec.table, row);
  for (RowSpec& row : spec.smoke_rows) row.seed = row_seed(spec.table, row);
}

SweepRunner::SweepRunner(const Options& options) : options_(options) {
  require(options.jobs >= 1, "SweepRunner requires jobs >= 1");
}

TableResult SweepRunner::run(const SweepSpec& spec) const {
  return run_all({spec}).front();
}

std::vector<TableResult> SweepRunner::run_all(
    const std::vector<SweepSpec>& specs) const {
  // Flatten every (table, row) pair into one submission-ordered work
  // list so the pool load-balances across tables.
  struct Item {
    const SweepSpec* spec;
    const RowSpec* row;
  };
  std::vector<Item> items;
  for (const SweepSpec& spec : specs) {
    for (const RowSpec& row : spec.selected(options_.smoke)) {
      items.push_back({&spec, &row});
    }
  }

  std::vector<RowResult> results(items.size());
  const auto run_one = [&](std::size_t i) {
    RowResult& out = results[i];
    try {
      out = items[i].spec->run(*items[i].row);
    } catch (const std::exception& e) {
      out = RowResult{};
      out.error = e.what();
      out.failed = true;
    }
    out.spec = *items[i].row;  // the runner owns the row identity in results
  };

  // Timed rows measure wall-clock, so each runs alone, before the pool
  // starts; everything else is pooled.
  std::vector<std::size_t> pooled;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (items[i].spec->timed) {
      run_one(i);
    } else {
      pooled.push_back(i);
    }
  }
  const std::size_t workers =
      std::min(static_cast<std::size_t>(options_.jobs), pooled.size());
  if (workers <= 1) {
    for (const std::size_t i : pooled) run_one(i);
  } else {
    RunPool pool(static_cast<int>(workers));
    pool.run_indexed(pooled.size(),
                     [&](std::size_t k) { run_one(pooled[k]); });
  }

  std::vector<TableResult> out;
  out.reserve(specs.size());
  std::size_t next = 0;
  for (const SweepSpec& spec : specs) {
    TableResult table;
    table.table = spec.table;
    table.title = spec.title;
    table.param_name = spec.param_name;
    table.smoke = options_.smoke;
    const std::size_t count = spec.selected(options_.smoke).size();
    for (std::size_t i = 0; i < count; ++i) {
      table.rows.push_back(std::move(results[next++]));
    }
    out.push_back(std::move(table));
  }
  return out;
}

double peak_rss_mib() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace csca::bench
