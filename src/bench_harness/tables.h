// The registered reproduction tables, one SweepSpec per table id:
//
//   F1  Figure 1   global function computation (+ Theorem 2.7 rows)
//   F2  Figure 2   connectivity / spanning tree
//   F3  Figure 3   MST algorithms
//   F4  Figure 4   SPT algorithms
//   F5  Figures 5  SLT weight/depth trade-off (q sweep)
//   F6  Figure 6   SLT on the [BKJ83] extremal families
//   F7  Figure 7   the lower-bound family G_n (Lemma 7.2 scaling)
//   F8  Figure 8   the split variant G'_{n,i}
//   F9  Figure 9   the strip method (tau sweep)
//   S3  Section 3  clock synchronization (alpha*/beta*/gamma*)
//   S4  Lemma 4.8  synchronizer gamma_w per-pulse overheads
//   S5  Cor. 5.1   controllers
//   A1  DESIGN.md  cover-coarsening substitution ablation
//   fault  docs/faults.md  ARQ overhead vs drop/dup rate (degradation)
//   fault_ctl  docs/faults.md  ARQ-aware admission: permits vs loss rate
//   scale  docs/scale.md  capacity scaling: CSR + pooled state, n to 10^6
//   timewarp  docs/optimistic.md  optimistic vs conservative backend
//   churn  docs/faults.md  recovery cost vs churn rate (restabilization)
//   engine  docs/model.md  sequential and pulse engine events/s
//   parallel  docs/parallel.md  ShardEngine and RunPool vs sequential
//
// scale, timewarp, engine and parallel are timed (SweepSpec::timed);
// scale comes first among them, and csca_sweep keeps this order for any
// selection, so its 10^6-node row reads its own peak RSS. Each table's rows, bound formulas and
// tolerances live in tables/<id>*.cpp; tools/csca_sweep, the ctest
// conformance tier and bench/perf's paper_sweep consume this registry.
#pragma once

#include "bench_harness/sweep.h"

namespace csca::bench {

SweepSpec table_f1_global_function();
SweepSpec table_f2_connectivity();
SweepSpec table_f3_mst();
SweepSpec table_f4_spt();
SweepSpec table_f5_slt_tradeoff();
SweepSpec table_f6_slt_extremal();
SweepSpec table_f7_lower_bound();
SweepSpec table_f8_lower_bound_split();
SweepSpec table_f9_strips();
SweepSpec table_s3_clock_sync();
SweepSpec table_s4_synchronizer();
SweepSpec table_s5_controller();
SweepSpec table_a1_cover();
SweepSpec table_fault_degradation();
SweepSpec table_fault_ctl();
SweepSpec table_scale();
SweepSpec table_timewarp();
SweepSpec table_churn();
SweepSpec table_engine();
SweepSpec table_parallel();

/// Events per second of the seed engine's replica (tables/engine.cpp)
/// on the engine table's flood_grid_1M storm, timed now: the baseline
/// `scale` measures its 10^6-node row against, so that its floor moves
/// with the machine and not with the code under test.
double seed_storm_events_per_sec();

/// All tables, in the id order above.
std::vector<SweepSpec> builtin_tables();

/// The spec with the given id, or nullptr.
const SweepSpec* find_table(const std::vector<SweepSpec>& tables,
                            const std::string& id);

}  // namespace csca::bench
