// F5 / F6 — Figures 5-6: the SLT algorithm, the weight/depth trade-off
// as the parameter q sweeps (Lemmas 2.4 / 2.5):
//   w(T)   <= (1 + 2/q) script-V
//   depth  <= (2q + 1) script-D
// weight_over_V falls toward 1 and depth_over_D rises (bounded) as q
// grows; the lemma checks are measured/bound ratios with tolerance 1 —
// the lemmas are proved, so any drift past 1 is a bug, not a regression.
//
// F6 runs the same sweep on the [BKJ83] extremal families the §2.2
// motivation cites: spt_heavy (w(SPT) = Theta(n script-V)) and mst_deep
// (Diam(MST) = Theta(n script-D)) — the graphs where *only* an SLT keeps
// both ratios small.
#include "bench_harness/table_common.h"
#include "bench_harness/tables.h"
#include "core/slt.h"

namespace csca::bench {

namespace {

RowResult run_row(const RowSpec& spec) {
  RowResult out;
  const Graph g = make_family(spec.family, spec.n, spec.seed);
  const NetworkMeasures m = measure(g);
  const double q = spec.param;

  const auto slt = build_slt(g, 0, q);
  const double weight = static_cast<double>(slt.weight(g));
  const double depth = static_cast<double>(slt.depth(g));
  const double v = static_cast<double>(m.comm_V);
  const double d = static_cast<double>(m.comm_D);

  add_metric(out, "weight", weight);
  add_metric(out, "depth", depth);
  add_metric(out, "diam", static_cast<double>(slt.diameter(g)));
  add_metric(out, "breakpoints",
             static_cast<double>(slt.breakpoints.size()));
  add_metric(out, "weight_over_V", weight / v);
  add_metric(out, "depth_over_D", depth / d);
  // Lemma 2.4 / 2.5: proved bounds, tolerance exactly 1.
  add_check(out, "lemma_24", weight, (1.0 + 2.0 / q) * v, 1.0);
  add_check(out, "lemma_25", depth, (2.0 * q + 1.0) * d, 1.0);
  return out;
}

SweepSpec make_slt_table(const char* table, const char* title,
                         const std::vector<const char*>& families,
                         const std::vector<double>& qs, int n_default) {
  SweepSpec spec;
  spec.table = table;
  spec.title = title;
  spec.param_name = 'q';
  spec.run = run_row;
  for (const char* family : families) {
    const int n = std::string(family) == "cycle" ? 96 : n_default;
    for (const double q : qs) {
      spec.rows.push_back({"slt", family, n, q});
    }
  }
  for (const double q : {0.5, 2.0, 8.0}) {
    spec.smoke_rows.push_back({"slt", families.front(), 12, q});
  }
  finalize_rows(spec);
  return spec;
}

}  // namespace

SweepSpec table_f5_slt_tradeoff() {
  return make_slt_table("F5", "Figure 5 - SLT weight/depth trade-off",
                        {"cycle", "gnp", "geometric"},
                        {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0}, 64);
}

SweepSpec table_f6_slt_extremal() {
  return make_slt_table("F6", "Figure 6 - SLT on [BKJ83] extremal families",
                        {"spt_heavy", "mst_deep"},
                        {0.5, 1.0, 2.0, 4.0, 8.0}, 64);
}

}  // namespace csca::bench
