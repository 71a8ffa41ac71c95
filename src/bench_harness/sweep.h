// The unified table/figure sweep harness.
//
// Every complexity table the repo reproduces (Figures 1-9, the §3-§5
// section claims, the cover ablation) is expressed as one SweepSpec: a
// declarative row grid (algorithm subject x graph family x size x knob)
// plus one row function that runs the simulated algorithm and reports
// the measured cost-sensitive metrics *and* the paper's claimed bound
// for that row as BoundChecks with stored tolerances. SweepRunner
// executes the rows through par::RunPool — results merge in submission
// order, every row derives its seed purely from its identity, and the
// run output (including the rendered JSON, see json.h) is byte-identical
// at any --jobs value.
//
// The tools/csca_sweep front end, the ctest `conformance` tier and the
// bench/perf `paper_sweep` workload all drive the same SweepSpecs
// (tables.h), so "measured stays inside the claimed bound" is a
// machine-checked regression assertion, not prose.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace csca::bench {

/// One point of a sweep grid. `param` is the table's free knob (q, tau,
/// W, k, ...); the owning SweepSpec names it in param_name ("" = none).
struct RowSpec {
  std::string algo;
  std::string family;
  int n = 0;
  double param = 0;
  /// Deterministic per-row stream seed; derived from the row identity by
  /// finalize_rows, never from execution order or thread id.
  std::uint64_t seed = 0;

  /// "algo/family/n=48" (+ "/q=2" when the table names a param).
  std::string name(const std::string& param_name) const;
};

/// A named measured quantity (simulated cost/time/messages and
/// table-specific extras — never wall-clock in table sweeps).
struct Metric {
  std::string name;
  double value = 0;
};

/// One measured-vs-claimed assertion: the paper's bound formula
/// evaluated for this row, the measurement it bounds, and the recorded
/// tolerance on the ratio. `min_ratio` is for rows whose *point* is to
/// exceed a bound (e.g. the uncontrolled runaway protocol).
struct BoundCheck {
  std::string name;
  double measured = 0;
  double bound = 0;
  double tolerance = 0;   ///< max allowed measured/bound
  double min_ratio = 0;   ///< min required measured/bound (usually 0)

  double ratio() const { return bound != 0 ? measured / bound : 0; }
  bool pass() const {
    const double r = ratio();
    return r <= tolerance && r >= min_ratio;
  }
};

/// The outcome of one row: what was measured and how it compares to the
/// claims. `failed` records an exception escaping the row function.
struct RowResult {
  RowSpec spec;
  std::vector<Metric> measured;
  std::vector<BoundCheck> checks;
  bool failed = false;
  std::string error;

  bool pass() const;
};

using RowFn = std::function<RowResult(const RowSpec&)>;

/// One table: identity, the declarative row grids, and the row function.
struct SweepSpec {
  std::string table;       ///< "F3", "S4", ... — keys BENCH_<id>.json
  std::string title;
  /// "" when the table has no extra knob. Builders assign a one-letter
  /// name as a char ('k'): GCC 12 at -O3 flags the assignment of a
  /// one-character string literal with a false -Wrestrict.
  std::string param_name;
  std::vector<RowSpec> rows;        ///< the full reproduction sweep
  std::vector<RowSpec> smoke_rows;  ///< small-n conformance subset
  RowFn run;
  /// The full rows time wall-clock, so SweepRunner runs every row of
  /// this spec alone, before any pooled row: no other row shares the
  /// machine while one is timed.
  bool timed = false;

  const std::vector<RowSpec>& selected(bool smoke) const {
    return smoke ? smoke_rows : rows;
  }
};

/// The result of sweeping one table.
struct TableResult {
  std::string table;
  std::string title;
  std::string param_name;
  bool smoke = false;
  std::vector<RowResult> rows;

  bool pass() const;
  int check_count() const;
  int failed_check_count() const;
};

/// Seed for a row: a pure function of (table, algo, family, n, param) —
/// independent of row order, job count, and sibling rows.
std::uint64_t row_seed(const std::string& table, const RowSpec& spec);

/// Assigns row_seed to every row (full and smoke grids). Table builders
/// call this last, so grid edits never reshuffle unrelated seeds.
void finalize_rows(SweepSpec& spec);

/// Executes SweepSpecs row by row: the rows of timed specs first, one
/// at a time, then every other row through a RunPool of at most `jobs`
/// workers. Rows are independent by construction (each builds its own
/// graph from its own seed), so results are identical at every jobs
/// value; they land in submission order, making the whole TableResult —
/// and the JSON rendered from it — byte-identical at --jobs=1 vs
/// --jobs=N (timed specs' smoke rows included).
class SweepRunner {
 public:
  struct Options {
    int jobs = 1;
    bool smoke = false;
  };

  explicit SweepRunner(const Options& options);

  TableResult run(const SweepSpec& spec) const;

  /// Runs several tables through one worker pool: all untimed rows of
  /// all tables form a single work list, so small tables do not
  /// serialize behind large ones. Results group back per table, in
  /// spec order.
  std::vector<TableResult> run_all(const std::vector<SweepSpec>& specs) const;

 private:
  Options options_;
};

/// The process's peak resident set so far (getrusage), in MiB.
double peak_rss_mib();

}  // namespace csca::bench
