// The measurement harness behind csca_perf: rep scheduling, per-rep
// samples and their medians, output checks and golden digests, spans for
// the traced run, and the result line. Workloads (workloads.h) drive it
// and never print results themselves.
//
// A run is a sequence of closed reps: build, run to quiescence, verify.
// With tracing off every rep is untraced and feeds the end-to-end
// metrics. A traced run alternates untraced and traced reps, so the
// per-layer numbers and the untraced baseline they are compared with
// (trace.overhead_frac) come from the same process.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace csca::perf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measuring time for the whole run; reps stop when the next one would
  /// not fit.
  double seconds = 10;
  /// Exact rep count instead of the time budget (0 = use seconds).
  int reps = 0;
  /// Tiny inputs, two reps (one untraced, one traced), no timing bounds.
  bool smoke = false;
  /// Traced run: span file written here at exit ("" = tracing off).
  std::string trace_path;
  /// Full result document (every series, environment, failures).
  std::string out_path;
};

/// A metric the result line carries. BENCHMARK.json lists the same
/// names and units; bench/perf/run.py refuses a result whose metric set
/// differs from it.
struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Printed with tracing off: what a user of the simulator sees.
const std::vector<MetricDef>& end_to_end_metrics();

/// Printed by the traced run. A layer the workload does not exercise
/// reads 0.
const std::vector<MetricDef>& per_layer_metrics();

/// The five workload names, in presentation order.
const std::vector<std::string>& workload_names();

class Bench {
 public:
  explicit Bench(Options opt);

  const Options& options() const { return opt_; }
  bool smoke() const { return opt_.smoke; }

  /// Starts the next rep; false when the run is over.
  bool next_rep();
  /// This rep records per-layer data.
  bool traced() const { return traced_; }

  /// One sample of `name` for the current rep. Untraced and traced reps
  /// keep separate series.
  void sample(const std::string& name, double value, std::string_view unit);

  /// A value pooled over the whole run's untraced reps (e.g. a
  /// percentile over every table row of every pass).
  void sample_run(const std::string& name, double value,
                  std::string_view unit);

  /// Output check: one attempted operation, failed when !ok (the
  /// message goes to stderr and the result document).
  void check(bool ok, const std::string& what);

  /// Checks an output digest against the first rep's and, when
  /// golden.txt pins this workload and seed, against the pinned value.
  void digest(const std::string& name, const std::string& value);

  /// Span bookkeeping for the traced run (no-op when not tracing).
  int open_span(const std::string& name, int parent);
  void close_span(int id);

  /// Prints the report and, last, the result line; writes the --out and
  /// --trace files. Returns the process exit code.
  int finish();

 private:
  struct Series {
    std::string unit;
    std::vector<double> values[2];  // [0] untraced reps, [1] traced reps
  };
  struct SpanRec {
    std::string name;
    int parent = -1;
    int rep = 0;
    double start_s = 0;
    double end_s = -1;
  };

  // Traced reps are interleaved with untraced ones when tracing, and in
  // a smoke run, which exercises every replay check.
  bool interleaves_traced() const {
    return !opt_.trace_path.empty() || opt_.smoke;
  }
  Series& series(const std::string& name, std::string_view unit);
  double value_for_result(const MetricDef& def) const;
  void add_derived_metrics();
  std::string render_document(const std::string& result_line) const;
  void write_trace() const;

  Options opt_;
  Clock::time_point start_;
  int rep_ = -1;
  bool traced_ = false;
  Clock::time_point rep_start_;
  std::vector<double> rep_seconds_[2];
  std::vector<std::string> order_;
  std::map<std::string, Series> series_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, std::string> first_digest_;
  std::map<std::string, std::string> golden_;
  std::vector<SpanRec> spans_;
};

/// RAII span: opened on construction, closed on destruction.
class Span {
 public:
  Span(Bench& b, const std::string& name, int parent = -1)
      : bench_(b), id_(b.open_span(name, parent)) {}
  ~Span() { bench_.close_span(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return id_; }

 private:
  Bench& bench_;
  int id_;
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);

}  // namespace csca::perf
