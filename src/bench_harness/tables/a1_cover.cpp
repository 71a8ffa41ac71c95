// A1 — ablation for the [AP91] Theorem 1.1 substitution (DESIGN.md):
// the greedy cluster-merging coarsening guarantees subsumption and the
// (2k-1) radius bound by construction; the max-degree property is the
// one we measure instead of prove. Rows sweep k and check
//   rad_slack    = Rad(T) / ((2k-1) Rad(S))        (must be <= 1)
//   degree_norm  = Delta(T) / (k |S|^{1/k})        (Thm 1.1(3) shape)
// plus the induced tree-edge-cover's Def. 3.1 measurements (max depth
// over d log n, max edge sharing over log n).
#include <algorithm>
#include <cmath>

#include "bench_harness/table_common.h"
#include "bench_harness/tables.h"
#include "partition/cover.h"
#include "partition/tree_edge_cover.h"

namespace csca::bench {

namespace {

RowResult run_coarsen(const RowSpec& spec) {
  RowResult out;
  const Graph g = make_family(spec.family, spec.n, spec.seed);
  const int k = static_cast<int>(spec.param);
  const Cover s = neighborhood_path_cover(g);
  const Cover t = coarsen(g, s, k);

  const double rs =
      static_cast<double>(std::max<Weight>(1, cover_radius(g, s)));
  const double rt = static_cast<double>(cover_radius(g, t));
  const double deg = cover_max_degree(g, t);
  add_metric(out, "initial_clusters", static_cast<double>(s.size()));
  add_metric(out, "clusters", static_cast<double>(t.size()));
  add_metric(out, "rad_S", rs);
  add_metric(out, "rad_T", rt);
  add_metric(out, "max_degree", deg);
  // The (2k-1) radius bound holds by construction — tolerance exactly 1.
  add_check(out, "rad_slack", rt, (2.0 * k - 1.0) * rs, 1.0);
  add_check(out, "degree_norm", deg,
            k * std::pow(static_cast<double>(s.size()), 1.0 / k), 0.6);
  return out;
}

RowResult run_tec(const RowSpec& spec) {
  RowResult out;
  const Graph g = make_family(spec.family, spec.n, spec.seed);
  const NetworkMeasures m = measure(g);
  const TreeEdgeCover tec = build_tree_edge_cover(g);
  const double logn = log2n(m.n);
  add_metric(out, "trees", static_cast<double>(tec.size()));
  add_check(out, "depth_over_dlogn",
            static_cast<double>(max_tree_depth(g, tec)),
            static_cast<double>(m.d) * logn, 0.5);
  add_check(out, "sharing_over_logn",
            static_cast<double>(max_tree_edge_sharing(g, tec)), logn, 1.0);
  return out;
}

RowResult run_row(const RowSpec& spec) {
  return spec.algo == "tree_edge_cover" ? run_tec(spec) : run_coarsen(spec);
}

}  // namespace

SweepSpec table_a1_cover() {
  SweepSpec spec;
  spec.table = "A1";
  spec.title = "Cover coarsening ablation (AP91 Thm 1.1 substitution)";
  spec.param_name = 'k';
  spec.run = run_row;
  for (const char* family : {"gnp", "grid", "heavy_chords"}) {
    for (const int k : {1, 2, 3, 5, 8}) {
      spec.rows.push_back({"coarsen", family, 32, static_cast<double>(k)});
    }
    spec.rows.push_back({"tree_edge_cover", family, 32, 1.0});
  }
  spec.smoke_rows.push_back({"coarsen", "gnp", 12, 2.0});
  spec.smoke_rows.push_back({"tree_edge_cover", "gnp", 12, 1.0});
  finalize_rows(spec);
  return spec;
}

}  // namespace csca::bench
