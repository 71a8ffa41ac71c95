#include "bench_harness/tables.h"

namespace csca::bench {

std::vector<SweepSpec> builtin_tables() {
  std::vector<SweepSpec> out;
  out.push_back(table_f1_global_function());
  out.push_back(table_f2_connectivity());
  out.push_back(table_f3_mst());
  out.push_back(table_f4_spt());
  out.push_back(table_f5_slt_tradeoff());
  out.push_back(table_f6_slt_extremal());
  out.push_back(table_f7_lower_bound());
  out.push_back(table_f8_lower_bound_split());
  out.push_back(table_f9_strips());
  out.push_back(table_s3_clock_sync());
  out.push_back(table_s4_synchronizer());
  out.push_back(table_s5_controller());
  out.push_back(table_a1_cover());
  out.push_back(table_fault_degradation());
  out.push_back(table_fault_ctl());
  out.push_back(table_scale());
  out.push_back(table_timewarp());
  out.push_back(table_churn());
  out.push_back(table_engine());
  out.push_back(table_parallel());
  return out;
}

const SweepSpec* find_table(const std::vector<SweepSpec>& tables,
                            const std::string& id) {
  for (const SweepSpec& t : tables) {
    if (t.table == id) return &t;
  }
  return nullptr;
}

}  // namespace csca::bench
