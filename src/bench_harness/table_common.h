// Shared helpers for the table definitions under tables/. Internal to
// the bench harness.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench_harness/sweep.h"
#include "graph/families.h"
#include "graph/measures.h"
#include "sim/delay.h"
#include "sim/message.h"

namespace csca::bench {

inline void add_metric(RowResult& out, const std::string& name,
                       double value) {
  out.measured.push_back({name, value});
}

inline void add_check(RowResult& out, const std::string& name,
                      double measured, double bound, double tolerance,
                      double min_ratio = 0) {
  out.checks.push_back({name, measured, bound, tolerance, min_ratio});
}

/// The standard cost-sensitive counters every table row reports:
/// weighted network parameters plus the run's ledger.
inline void report_stats(RowResult& out, const NetworkMeasures& m,
                         const RunStats& stats) {
  add_metric(out, "E_w", static_cast<double>(m.comm_E));
  add_metric(out, "V_w", static_cast<double>(m.comm_V));
  add_metric(out, "D_w", static_cast<double>(m.comm_D));
  add_metric(out, "msgs", static_cast<double>(stats.total_messages()));
  add_metric(out, "cost", static_cast<double>(stats.total_cost()));
  add_metric(out, "time", stats.completion_time);
}

/// Runs fn and returns its wall-clock seconds, for the timed tables'
/// throughput metrics; the clock never feeds simulation state.
template <typename Fn>
double wall_seconds(Fn&& fn) {
  // csca-analyze: allow(DET-2): throughput bracket, not simulation state
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  // csca-analyze: allow(DET-2): closes the throughput bracket above.
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// count per second of secs, safe against a zero-length bracket.
inline double per_sec(double count, double secs) {
  return count / std::max(secs, 1e-12);
}

/// log2(n + 2), the smoothed log every bound formula uses.
inline double log2n(double n) { return std::log2(n + 2); }

}  // namespace csca::bench
