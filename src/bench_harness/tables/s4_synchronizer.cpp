// S4 — Lemma 4.8: the amortized per-pulse overhead of synchronizer
// gamma_w,
//   C_p = O(k n log n)       (control cost per pulse)
//   T_p = O(log_k n log n)   (time dilation per pulse)
// measured against alpha and beta hosting the same in-synch flooding
// protocol on normalized networks with heavy chords (log W levels).
// alpha's per-pulse control cost carries the full script-E (it cleans
// every link every pulse); gamma_w's collapses because heavy levels run
// rarely. The k sweep shows gamma's communication/time dial.
#include <cstdint>
#include <memory>

#include "bench_harness/table_common.h"
#include "bench_harness/tables.h"
#include "sim/sync_engine.h"
#include "sync/protocols.h"
#include "sync/synchronizer.h"

namespace csca::bench {

namespace {

RowResult run_row(const RowSpec& spec) {
  RowResult out;
  const Graph g = normalized_chords_graph(spec.n, spec.seed);
  const NetworkMeasures m = measure(g);
  const int k = static_cast<int>(spec.param);
  const auto factory = [](NodeId v) {
    return std::make_unique<InSynchFlood>(v, 0);
  };
  SyncEngine ref(g, factory, /*enforce_in_synch=*/true);
  const RunStats pi = ref.run();
  const auto t_pi = static_cast<std::int64_t>(pi.completion_time) + 1;

  SynchronizerKind sk = SynchronizerKind::kGammaW;
  if (spec.algo == "alpha") sk = SynchronizerKind::kAlpha;
  if (spec.algo == "beta") sk = SynchronizerKind::kBeta;
  SynchronizedNetwork net(g, factory, sk, k, t_pi, make_exact_delay());
  const SynchronizerRun run = net.run();
  report_stats(out, m, run.stats);

  const double tp = static_cast<double>(t_pi);
  const double logn = log2n(m.n);
  const double c_p = static_cast<double>(run.stats.control_cost) / tp;
  add_metric(out, "t_pi", tp);
  add_metric(out, "c_pi", static_cast<double>(pi.algorithm_cost));
  add_metric(out, "C_p", c_p);
  add_metric(out, "T_p", run.stats.completion_time / tp);
  add_metric(out, "finished", run.hosted_all_finished ? 1 : 0);

  // Lemma 4.8's C_p bound for gamma_w; alpha pays script-E both ways per
  // pulse, beta two sweeps of its spanning tree.
  double bound = static_cast<double>(k) * m.n * logn;
  if (spec.algo == "alpha") {
    bound = 2.0 * static_cast<double>(m.comm_E);
  } else if (spec.algo == "beta") {
    bound = 4.0 * static_cast<double>(m.n);
  }
  // 1.2: initialization traffic amortizes into the first pulses, so
  // alpha sits a hair above its steady-state 2 script-E.
  add_check(out, "C_p_over_bound", c_p, bound, 1.2);
  return out;
}

}  // namespace

SweepSpec table_s4_synchronizer() {
  SweepSpec spec;
  spec.table = "S4";
  spec.title = "Section 4 - synchronizer gamma_w per-pulse overhead";
  spec.param_name = 'k';
  spec.run = run_row;
  spec.rows.push_back({"alpha", "normalized_chords", 24, 2.0});
  spec.rows.push_back({"beta", "normalized_chords", 24, 2.0});
  for (const int k : {2, 4, 8}) {
    spec.rows.push_back(
        {"gamma_w", "normalized_chords", 24, static_cast<double>(k)});
  }
  for (const char* algo : {"alpha", "beta", "gamma_w"}) {
    spec.smoke_rows.push_back({algo, "normalized_chords", 10, 2.0});
  }
  finalize_rows(spec);
  return spec;
}

}  // namespace csca::bench
