// The five csca_perf workloads (README.md says why each was chosen).
// Each runs reps until the Bench says stop: build the inputs from the
// seed, run to quiescence, verify the outputs.
#pragma once

#include <string>

#include "bench.h"

namespace csca::perf {

/// Runs the named workload (one of workload_names()).
void run_workload(const std::string& name, Bench& b);

}  // namespace csca::perf
