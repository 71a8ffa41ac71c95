#!/usr/bin/env bash
# Full verification gate: tier-1 suite with warnings promoted to errors,
# the same suite under ASan+UBSan, the parallel suite under TSan, the
# static-analysis gate (csca_analyze over src/ tools/ bench/; see
# docs/analysis.md), the lint pass, and the timed tables (scale,
# engine, parallel) in smoke mode. The protocol-analysis
# sweep (csca_check --smoke) runs as a ctest entry in both
# configurations, then again here sequentially vs parallelized to show
# the multi-run harness wall-clock side by side, and once more under a
# builtin fault plan (plain + sharded; the TSan leg repeats the sharded
# faulted run) to gate the fault-injection hooks. The fault smoke runs
# the fault ctest tier (ctest -L fault: injector, both ARQ hosts,
# garble masking, and the invariant checker's direct-drive hook tests
# and footprint guard), so a failing ARQ or checker test is named
# there. It also drives the metered fault_ctl table
# (csca_sweep --table=fault_ctl)
# sequentially, at --jobs N with a byte-for-byte diff, and again in the
# TSan leg, so a drifting admission bound fails with its row named. The
# table-sweep gate
# runs the conformance tier (ctest -L conformance), then csca_sweep's
# smoke grids at --jobs=1 vs --jobs=N and diffs the BENCH_<id>.json
# trees byte for byte. The benchmark smoke builds bench/perf into
# .bench_build and runs its perf ctest, which checks the golden ledger
# digest of every benchmark workload. The Release leg compiles every
# target at -O3 with -Werror in its own tree (build-release), so a
# warning that only the optimizer's inlining raises fails here; it runs
# no tests.
#
# Usage: tools/check.sh [--jobs N] [--no-sanitize] [--no-tsan] [--no-lint]
#                       [--no-analyze] [--no-release]
# (from the repo root). --jobs caps build parallelism and is forwarded
# to csca_check --jobs for the harness timing comparison.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_SANITIZE=1
RUN_TSAN=1
RUN_LINT=1
RUN_ANALYZE=1
RUN_RELEASE=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) shift
            [[ $# -gt 0 && "$1" =~ ^[0-9]+$ && "$1" -ge 1 ]] || {
              echo "check.sh: --jobs needs a positive integer" >&2; exit 2; }
            JOBS="$1" ;;
    --jobs=*) JOBS="${1#--jobs=}"
              [[ "$JOBS" =~ ^[0-9]+$ && "$JOBS" -ge 1 ]] || {
                echo "check.sh: --jobs needs a positive integer" >&2; exit 2; } ;;
    --no-sanitize) RUN_SANITIZE=0 ;;
    --no-tsan) RUN_TSAN=0 ;;
    --no-lint) RUN_LINT=0 ;;
    --no-analyze) RUN_ANALYZE=0 ;;
    --no-release) RUN_RELEASE=0 ;;
    *) echo "usage: tools/check.sh [--jobs N] [--no-sanitize] [--no-tsan] [--no-lint] [--no-analyze] [--no-release]" >&2
       exit 2 ;;
  esac
  shift
done

echo "== tier-1: plain build (-Werror) =="
cmake -B build -S . -DCSCA_WERROR=ON >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

if [[ "$RUN_ANALYZE" == 1 ]]; then
  echo "== static analysis (csca_analyze; docs/analysis.md) =="
  # The determinism & cost-accounting analyzer over every scanned root.
  # Prints the finding count even when clean; exits nonzero on any
  # unsuppressed finding. The analyze ctest tier re-runs the analyzer's
  # own fixture corpus + self-scan.
  ./build/tools/csca_analyze src tools bench
  ctest --test-dir build -L analyze --output-on-failure -j "$JOBS"
fi

echo "== protocol sweep: sequential vs multi-run harness (--jobs $JOBS) =="
./build/tools/csca_check --smoke
./build/tools/csca_check --smoke --jobs="$JOBS"
./build/tools/csca_check --smoke --shards=2

echo "== fault smoke: portfolio under a 1% drop plan (see docs/faults.md) =="
# The fault tier first: injector semantics, both ARQ hosts (the one
# ArqLinks state machine behind its asynchronous and pulse adapters)
# and the invariant checker (Invariants.*) that re-verifies them.
ctest --test-dir build -L fault --output-on-failure
./build/tools/csca_check --smoke --faults=drop1pct
./build/tools/csca_check --smoke --faults=drop1pct --shards=2

echo "== fault smoke: ARQ-aware admission table (fault_ctl) =="
# The metered-controller grid: permits vs loss rate, each row bound by
# the R(p) retransmission envelope. A drifting row fails csca_sweep by
# name; the --jobs run must reproduce the sequential JSON byte for byte.
./build/tools/csca_sweep --smoke --table=fault_ctl --out-dir=build/fault_ctl_j1
./build/tools/csca_sweep --smoke --table=fault_ctl --jobs="$JOBS" \
  --out-dir=build/fault_ctl_jN
diff build/fault_ctl_j1/BENCH_fault_ctl.json build/fault_ctl_jN/BENCH_fault_ctl.json \
  || { echo "check.sh: fault_ctl output differs across --jobs" >&2; exit 1; }

echo "== timewarp smoke: optimistic backend (docs/optimistic.md) =="
# The optimistic (Time Warp) backend over the same smoke portfolio the
# shard runs cover above, plus its dedicated ctest tier (calendar
# queue, rollback torture, GVT/fossil properties, bit-identity matrix)
# and the timewarp table's smoke grid at --jobs 1 vs N byte for byte.
./build/tools/csca_check --smoke --backend=timewarp --shards=2
./build/tools/csca_check --smoke --backend=timewarp --shards=4 \
  --faults=drop1pct
ctest --test-dir build -L timewarp --output-on-failure -j "$JOBS"
./build/tools/csca_sweep --smoke --table=timewarp --out-dir=build/timewarp_j1
./build/tools/csca_sweep --smoke --table=timewarp --jobs="$JOBS" \
  --out-dir=build/timewarp_jN
diff build/timewarp_j1/BENCH_timewarp.json build/timewarp_jN/BENCH_timewarp.json \
  || { echo "check.sh: timewarp output differs across --jobs" >&2; exit 1; }

echo "== churn smoke: dynamic topology + restabilization (docs/faults.md) =="
# The churn tier: churn-plan semantics, the cross-engine churn
# determinism matrix, byzantine containment, and the restabilizing
# recovery driver — then the portfolio composed with a builtin churn
# plan on each backend, and the churn table's recovery-cost envelope at
# --jobs 1 vs N byte for byte.
ctest --test-dir build -L churn --output-on-failure -j "$JOBS"
./build/tools/csca_check --smoke --churn=edge_churn
./build/tools/csca_check --smoke --churn=full_churn --faults=drop1pct --shards=2
./build/tools/csca_check --smoke --churn=node_churn --backend=timewarp --shards=2
./build/tools/csca_sweep --smoke --table=churn --out-dir=build/churn_j1
./build/tools/csca_sweep --smoke --table=churn --jobs="$JOBS" \
  --out-dir=build/churn_jN
diff build/churn_j1/BENCH_churn.json build/churn_jN/BENCH_churn.json \
  || { echo "check.sh: churn output differs across --jobs" >&2; exit 1; }

echo "== table sweep: conformance tier + --jobs byte-identity =="
ctest --test-dir build -L conformance --output-on-failure -j "$JOBS"
./build/tools/csca_sweep --list
./build/tools/csca_sweep --smoke --jobs=1 --out-dir=build/sweep_j1
./build/tools/csca_sweep --smoke --jobs="$JOBS" --out-dir=build/sweep_jN
diff -r build/sweep_j1 build/sweep_jN \
  || { echo "check.sh: csca_sweep output differs across --jobs" >&2; exit 1; }

echo "== benchmark smoke: golden ledgers of the perf workloads (bench/perf) =="
# The benchmark package builds on its own (bench/perf/CMakeLists.txt);
# perf_smoke runs all five workloads at tiny size and checks each one's
# ledger digest against bench/perf/golden.txt, so an engine change is
# gated on the traffic the benchmark measures.
cmake -S bench/perf -B .bench_build >/dev/null
cmake --build .bench_build -j "$JOBS" --target csca_perf
ctest --test-dir .bench_build -L perf --output-on-failure

if [[ "$RUN_RELEASE" == 1 ]]; then
  echo "== Release -O3 -Werror build: every target, compile only =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DCSCA_WERROR=ON \
    >/dev/null
  cmake --build build-release -j "$JOBS"
fi

if [[ "$RUN_SANITIZE" == 1 ]]; then
  echo "== tier-1: ASan+UBSan build =="
  cmake -B build-asan -S . -DCSCA_SANITIZE=ON -DCSCA_WERROR=ON >/dev/null
  cmake --build build-asan -j "$JOBS"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  # TSan needs compiler/runtime support (libtsan); probe before
  # configuring so unsupported toolchains skip with a notice instead of
  # failing the gate.
  if echo 'int main(){return 0;}' | c++ -fsanitize=thread -x c++ - \
       -o /tmp/csca_tsan_probe.$$ 2>/dev/null \
     && /tmp/csca_tsan_probe.$$ 2>/dev/null; then
    rm -f /tmp/csca_tsan_probe.$$
    echo "== parallel suite: TSan build (par_test + timewarp_test + churn_test + shared-graph and faulted shard runs) =="
    cmake -B build-tsan -S . -DCSCA_TSAN=ON -DCSCA_WERROR=ON >/dev/null
    cmake --build build-tsan -j "$JOBS" --target par_test timewarp_test churn_test csca_check_tool csca_sweep
    ./build-tsan/tests/par_test
    ./build-tsan/tests/timewarp_test
    # The churn tier's cross-engine matrix (ShardEngine + TimeWarp under
    # liveness churn, RunPool-mapped cells) under the race detector.
    ./build-tsan/tests/churn_test
    # RunPool jobs sharing one builtin family graph read it at once.
    # Family graphs are born built, so these reads take no lock; the
    # locked first-read build of an add_edge graph is par_test's
    # SharedGraph.ConcurrentFirstReadsOfAnUnbuiltGraphAgree.
    ./build-tsan/tools/csca_check --smoke --jobs=4
    ./build-tsan/tools/csca_check --smoke --faults=drop1pct --shards=2
    # The optimistic backend's cross-shard paths (anti-message channels,
    # GVT reduction, fossil frees) under the race detector.
    ./build-tsan/tools/csca_check --smoke --backend=timewarp --shards=2
    # Four shards on each engine: the round team's barrier completion
    # (ShardEngine's bounds, TimeWarp's GVT round and hooks) runs on one
    # thread while three others wait, and each shard fossil-collects on
    # its own thread what the completion committed.
    ./build-tsan/tools/csca_check --smoke --shards=4
    ./build-tsan/tools/csca_check --smoke --backend=timewarp --shards=4
    # The metered fault_ctl grid with parallel rows: ARQ retransmit
    # billing feeds the admission counter across RunPool workers, so
    # this is the data-race-sensitive path of the fault smoke.
    ./build-tsan/tools/csca_sweep --smoke --table=fault_ctl --jobs=2 \
      --out-dir=build-tsan/fault_ctl
    # ShardEngine's round team and RunPool's workers inside the parallel
    # table's rows, under the race detector.
    ./build-tsan/tools/csca_sweep --smoke --table=parallel --jobs=2 \
      --out-dir=build-tsan/parallel
  else
    rm -f /tmp/csca_tsan_probe.$$
    echo "== parallel suite: TSan SKIPPED (toolchain lacks -fsanitize=thread support) =="
  fi
fi

if [[ "$RUN_LINT" == 1 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint (clang-tidy) =="
    tools/lint.sh build
  else
    echo "== lint: SKIPPED (clang-tidy not on PATH; install it or pass --no-lint to silence this) =="
  fi
fi

echo "== timed tables (smoke): scale, engine, parallel =="
# The simulator's own throughput and capacity tables, whose full rows
# time wall-clock (docs/scale.md, docs/parallel.md). Their smoke rows
# are deterministic: scale's bytes/node bounds, and engine's and
# parallel's identity checks (storm walk counts, ring hop counts, the
# seed-queue replica, ShardEngine's and RunPool's ledgers against
# sequential). The --jobs diff above covers their JSON.
./build/tools/csca_sweep --smoke --table=scale --table=engine \
  --table=parallel --out-dir=build/timed_smoke

echo "check.sh: all gates passed"
