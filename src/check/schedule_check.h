// Schedule-exploration race detector (the asynchronous analog of a
// data-race checker).
//
// The paper's correctness quantifier (§1.3) ranges over *every* delay
// assignment in [0, w(e)]: a protocol is correct only if its output is
// identical under all admissible schedules. A single test run fixes one
// schedule and so cannot distinguish "correct" from "correct under the
// schedule I happened to get". This module replays a protocol across a
// portfolio of delay models and seeds — the exact worst case, random
// uniform and two-point adversaries, and the deterministic per-edge
// EdgeFractionDelay — with the DefaultInvariantChecker attached to
// every run, and reports
//
//   * invariant violations, tagged with the schedule that produced them;
//   * digest divergences: the protocol-supplied output digest (e.g. an
//     MST edge set, SPT distances) differing between two schedules;
//   * errors: exceptions escaping a run (engine precondition failures,
//     protocol ensure()s), likewise tagged.
//
// Every finding carries the schedule name and network seed, so it
// reproduces exactly by re-running that one (subject, graph, schedule)
// triple. tools/csca_check.cpp sweeps the repo's protocols x graph
// families through this machinery; docs/checking.md is the manual.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/churn_plan.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"
#include "sim/network.h"

namespace csca {

/// One admissible schedule: a delay-model recipe plus the network seed
/// driving any randomness in it. The recipe is a factory because each
/// replay needs a fresh model. When make_faults is set, the run also
/// executes under the FaultPlan it builds for the graph (keyed off the
/// same seed), and the sweep switches to degraded-mode reporting: see
/// check_subject.
struct ScheduleSpec {
  std::string name;  ///< human-readable, parameters included
  std::uint64_t seed = 1;
  std::function<std::unique_ptr<DelayModel>()> make_delay;
  std::function<FaultPlan(const Graph&)> make_faults;  ///< optional
  /// Optional dynamic-topology schedule composed into the injector
  /// (liveness intervals only — single-run sweeps never cross an epoch
  /// boundary, so weight re-draws do not apply here; see
  /// fault/churn_plan.h). Active churn switches the sweep to
  /// degraded-mode reporting exactly like an active fault plan.
  std::function<ChurnPlan(const Graph&)> make_churn;
};

/// Builds the injector for a faulted spec against g (the graph the
/// engine runs on: outage and crash builtins scale their times off its
/// edge weights); nullopt when the spec has no plan or the plan is
/// inactive, so the engine keeps its zero-cost fault-free path and
/// byte-identical ledgers.
std::optional<FaultInjector> make_injector(const Graph& g,
                                           const ScheduleSpec& spec);

/// The standard portfolio (8 schedules): exact worst case, three
/// uniform draws, two two-point adversaries, two deterministic per-edge
/// fraction assignments. The exact schedule comes first and serves as
/// the digest reference.
std::vector<ScheduleSpec> default_portfolio();

/// Result of replaying a subject once under one schedule.
struct SubjectOutcome {
  std::string digest;  ///< schedule-invariant output fingerprint
  std::vector<std::string> violations;  ///< checker + subject findings
  /// Protocol-level oracle mismatches observed under an *active* fault
  /// plan. Faults are allowed to degrade a protocol's output (that is
  /// what the sweep measures), so these are reported separately from
  /// violations, which remain hard failures of the simulation model.
  std::vector<std::string> degraded;
  RunStats stats;      ///< the run's cost ledger
  int finished_nodes = 0;  ///< nodes that called finish() by end of run
  bool failed = false;  ///< an exception escaped the run
  std::string error;
};

/// Which parallel engine a sharded replay runs on. Both honor the same
/// bit-identity contract against the keyed sequential Network, so the
/// portfolio means the same thing on either — the backend dimension
/// exists to catch bugs specific to one engine's synchronization
/// (conservative windows vs optimistic rollback).
enum class ParBackend {
  kShard,     ///< conservative windows (par/shard_engine.h)
  kTimeWarp,  ///< optimistic rollback + GVT commit (par/timewarp_engine.h)
};

/// A protocol adapter: given a graph and a schedule, run the protocol
/// to completion with the invariant checker attached and digest its
/// output. The digest must cover exactly the schedule-invariant part of
/// the output (an MST edge set, distances — not a first-receipt tree).
/// run_par replays the same subject on the selected parallel engine
/// with the given shard count — same digest contract, but without the
/// sequential-only invariant observer.
struct CheckSubject {
  std::string name;
  std::function<SubjectOutcome(const Graph&, const ScheduleSpec&)> run;
  std::function<SubjectOutcome(const Graph&, const ScheduleSpec&, int,
                               ParBackend)>
      run_par;
};

/// One reportable finding of a schedule sweep.
struct CheckFinding {
  std::string subject;
  std::string graph;
  std::string schedule;
  std::uint64_t seed = 0;
  std::string kind;  ///< "invariant" | "divergence" | "error" | "degraded"
  std::string detail;
};

struct ScheduleCheckReport {
  int runs = 0;
  int runs_completed = 0;     ///< runs no exception escaped
  int runs_all_finished = 0;  ///< runs where every node finished
  /// Runs with at least one "degraded" finding. A single faulted run
  /// can surface many oracle mismatches (one per wrong distance, say);
  /// summaries that want "how many runs degraded" must use this, not
  /// the finding count, or one noisy run masquerades as several.
  int runs_degraded = 0;
  std::string reference_schedule;
  std::string reference_digest;
  std::vector<CheckFinding> findings;
  /// "degraded" findings are expected under an active fault plan and do
  /// not fail the sweep; everything else does.
  bool ok() const {
    for (const CheckFinding& f : findings) {
      if (f.kind != "degraded") return false;
    }
    return true;
  }
};

/// Replays `subject` on g under every schedule of the portfolio. The
/// first schedule's digest is the reference; later digests must match
/// it. graph_name labels findings. With shards > 0, runs go through
/// subject.run_par on the sharded engine instead (the digest contract
/// is engine-independent, so the report means the same thing).
///
/// Schedules with an active fault plan are exempt from the digest
/// comparison — which messages a keyed fault stream fates depends on
/// the delay schedule, so divergence between faulted schedules is
/// expected, not a bug — and their oracle mismatches surface as
/// "degraded" findings instead of "invariant" ones.
ScheduleCheckReport check_subject(const CheckSubject& subject,
                                  const Graph& g,
                                  const std::string& graph_name,
                                  std::span<const ScheduleSpec> portfolio,
                                  int shards = 0,
                                  ParBackend backend = ParBackend::kShard);

/// Digests read results through ProcessHost, so one digest closure
/// validates the sequential and the sharded engine bit-for-bit.
using DigestFn =
    std::function<std::string(ProcessHost&, std::vector<std::string>&)>;

/// Building block for plain-Process subjects: constructs a Network from
/// the factory under `spec`, attaches a DefaultInvariantChecker, runs
/// to quiescence, runs the final ledger checks, and applies `digest` to
/// the quiesced network. The digest callback may append protocol-level
/// validation failures (oracle mismatches, agreement violations) to the
/// violations list it is handed — under an active fault plan that list
/// is SubjectOutcome::degraded instead of violations. Exceptions become
/// a failed outcome. When spec.make_faults yields an active plan, a
/// FaultInjector is attached to both the network and the checker.
SubjectOutcome run_checked(const Graph& g, const ProcessFactory& factory,
                           const ScheduleSpec& spec, const DigestFn& digest);

/// Parallel counterpart of run_checked: the same factory and digest on
/// the `backend` engine with `shards` shards, read through the
/// ProcessHost result side both engines share. The invariant observer
/// is a sequential-engine feature and is not attached; digest-level
/// validation (oracles, agreement) still runs. On TimeWarp, deliveries
/// that are speculated and rolled back never reach the committed ledger
/// the digest reads, so the outcome is byte-comparable to both other
/// engines.
SubjectOutcome run_parallel(const Graph& g, const ProcessFactory& factory,
                            const ScheduleSpec& spec, int shards,
                            ParBackend backend, const DigestFn& digest);

}  // namespace csca
