// The bit-identity torture tests for the optimistic backend: whatever
// the conservative ShardEngine suite pins against the keyed sequential
// Network, the TimeWarpEngine must reproduce too — digests, full golden
// ledgers, per-node finish times, per-link per-class counts — at every
// worker count, under faults, and against a budget-sliced (resumed)
// sequential reference. Speculation must be invisible in every
// committed observable.
#include "par/timewarp_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/subjects.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "par_fixtures.h"

namespace csca {
namespace {

// Every speculated event either committed or was rolled back, and every
// anti-message found its positive — the engine's internal conservation
// laws, asserted after any completed run.
void expect_speculation_conserved(const TimeWarpEngine& eng,
                                  const std::string& label) {
  EXPECT_EQ(eng.speculative_events(),
            eng.committed_events() + eng.rolled_back_events())
      << label;
  EXPECT_EQ(eng.anti_messages(), eng.annihilations()) << label;
}

// The full determinism matrix on the optimistic backend: every builtin
// subject, on every smoke family, under every portfolio schedule, at 1,
// 2 and 4 shards — digest equal to the sequential run's, ledger
// identical across shard counts, and (on the deterministic schedules,
// where keyed and plain draws coincide) ledger identical to the
// sequential one bit-for-bit.
TEST(TimeWarpDeterminism, MatrixAcrossSubjectsFamiliesSchedulesShards) {
  const auto subjects = builtin_subjects();
  const auto families = builtin_families(/*smoke=*/true);
  const auto portfolio = default_portfolio();
  for (const CheckSubject& subject : subjects) {
    ASSERT_NE(subject.run_par, nullptr) << subject.name;
    for (const GraphFamily& family : families) {
      for (const ScheduleSpec& spec : portfolio) {
        const std::string label =
            subject.name + "/" + family.name + "/" + spec.name;
        const SubjectOutcome seq = subject.run(family.graph, spec);
        ASSERT_FALSE(seq.failed) << label << ": " << seq.error;
        EXPECT_TRUE(seq.violations.empty()) << label;

        const bool deterministic_schedule =
            spec.name == "exact" || spec.name.rfind("edgefrac", 0) == 0;

        SubjectOutcome first_par;
        for (const int shards : {1, 2, 4}) {
          const std::string plabel =
              label + "@" + std::to_string(shards) + "shards";
          const SubjectOutcome par = subject.run_par(
              family.graph, spec, shards, ParBackend::kTimeWarp);
          ASSERT_FALSE(par.failed) << plabel << ": " << par.error;
          EXPECT_TRUE(par.violations.empty()) << plabel;
          EXPECT_EQ(par.digest, seq.digest) << plabel;
          if (shards == 1) {
            first_par = par;
          } else {
            expect_stats_identical(par.stats, first_par.stats, plabel);
          }
          if (deterministic_schedule) {
            expect_stats_identical(par.stats, seq.stats, plabel);
          }
        }
      }
    }
  }
}

// Engine-level equivalence on the random schedules: the keyed
// sequential Network is the reference; the optimistic engine must
// reproduce its ledger, finish times and per-link counts exactly —
// while actually speculating (rollbacks observed at 2+ shards on this
// workload are the norm, and the conservation laws must hold
// regardless).
TEST(TimeWarpEngine, MatchesKeyedNetworkBitForBitOnRandomSchedules) {
  Rng rng(3);
  const Graph g = connected_gnp(24, 0.2, WeightSpec::uniform(1, 9), rng);
  const auto factory = [](NodeId) { return std::make_unique<Storm>(3); };
  struct Schedule {
    const char* name;
    std::function<std::unique_ptr<DelayModel>()> make;
    std::uint64_t seed;
  };
  const Schedule schedules[] = {
      {"uniform", [] { return make_uniform_delay(0.0, 1.0); }, 42},
      {"twopoint", [] { return make_two_point_delay(0.7); }, 99},
  };
  for (const Schedule& sched : schedules) {
    Network ref(g, factory, sched.make(), sched.seed);
    ref.set_keyed_delays(true);
    const RunStats ref_stats = ref.run();
    EXPECT_GT(ref_stats.events, 100) << "workload should be non-trivial";

    for (const int shards : {1, 2, 4}) {
      const std::string label = std::string(sched.name) + "@" +
                                std::to_string(shards) + "shards";
      TimeWarpEngine eng(g, factory, sched.make(), sched.seed,
                         TimeWarpEngine::Options{shards, 0, 256, {}});
      const RunStats par_stats = eng.run();
      expect_stats_identical(par_stats, ref_stats, label);
      expect_hosts_identical(eng, ref, g, label);
      EXPECT_EQ(eng.max_edge_message_count(), ref.max_edge_message_count())
          << label;
      expect_speculation_conserved(eng, label);
    }
  }
}

// Keyed fault fates ride the same per-channel send counts rollback
// rewinds, so faulted runs must replay bit-identically too — builtin
// plans drop1pct, link_flap and garble1pct, each at every shard count.
TEST(TimeWarpEngine, FaultedRunsMatchKeyedNetworkBitForBit) {
  Rng rng(3);
  const Graph g = connected_gnp(24, 0.2, WeightSpec::uniform(1, 9), rng);
  const auto factory = [](NodeId) { return std::make_unique<ClampedStorm>(3); };
  const std::uint64_t seed = 42;
  for (const char* plan_name : {"drop1pct", "link_flap", "garble1pct"}) {
    const FaultPlan plan = make_builtin_fault_plan(plan_name, g);
    const FaultInjector inj(plan, g, seed);
    Network ref(g, factory, make_uniform_delay(0.0, 1.0), seed);
    ref.set_keyed_delays(true);
    ref.set_faults(&inj);
    const RunStats ref_stats = ref.run();
    EXPECT_GT(ref_stats.events, 0) << plan_name;

    for (const int shards : {1, 2, 4}) {
      const std::string label =
          std::string(plan_name) + "@" + std::to_string(shards) + "shards";
      TimeWarpEngine eng(g, factory, make_uniform_delay(0.0, 1.0), seed,
                         TimeWarpEngine::Options{shards, 0, 256, {}});
      eng.set_faults(&inj);
      const RunStats par_stats = eng.run();
      expect_stats_identical(par_stats, ref_stats, label);
      expect_hosts_identical(eng, ref, g, label);
      expect_speculation_conserved(eng, label);
    }
  }
}

// The sequential engine may be run in budget slices (run(max_time)
// accumulates); the optimistic one-shot run must land on the exact
// ledger a resumed sequential reference accumulates — commit-time
// billing cannot depend on where the reference's budget boundaries
// fell.
TEST(TimeWarpEngine, MatchesBudgetSlicedSequentialReference) {
  Rng rng(6);
  const Graph g = connected_gnp(20, 0.25, WeightSpec::uniform(1, 9), rng);
  const auto factory = [](NodeId) { return std::make_unique<Storm>(3); };
  const std::uint64_t seed = 77;

  Network ref(g, factory, make_uniform_delay(0.0, 1.0), seed);
  ref.set_keyed_delays(true);
  // Resume in small slices: each call extends the clock budget.
  RunStats ref_stats;
  for (double budget = 0.5;; budget += 0.5) {
    ref_stats = ref.run(budget);
    if (ref.all_finished() || budget > 64.0) break;
  }
  const RunStats final_ref = ref.run();  // drain whatever remains
  EXPECT_GT(final_ref.events, 100);

  for (const int shards : {2, 4}) {
    const std::string label = std::to_string(shards) + "shards";
    TimeWarpEngine eng(g, factory, make_uniform_delay(0.0, 1.0), seed,
                       TimeWarpEngine::Options{shards, 0, 256, {}});
    const RunStats par_stats = eng.run();
    expect_stats_identical(par_stats, final_ref, label);
    expect_hosts_identical(eng, ref, g, label);
  }
}

// The triple composition: faults (link_flap outage windows) x budget
// slicing x optimistic execution. The resumed, budget-sliced sequential
// reference re-evaluates link_down against the same virtual clock no
// matter where its slice boundaries fall, and the one-shot TimeWarp run
// — whose rollbacks re-derive outage answers purely — must land on the
// same committed state bit-for-bit.
TEST(TimeWarpEngine, FaultedBudgetSlicedReferenceMatchesBitForBit) {
  Rng rng(13);
  const Graph g = connected_gnp(20, 0.25, WeightSpec::uniform(1, 9), rng);
  const auto factory = [](NodeId) { return std::make_unique<Storm>(3); };
  const std::uint64_t seed = 77;
  const FaultPlan plan = make_builtin_fault_plan("link_flap", g);
  ASSERT_FALSE(plan.outages.empty());
  const FaultInjector inj(plan, g, seed);

  Network ref(g, factory, make_uniform_delay(0.0, 1.0), seed);
  ref.set_keyed_delays(true);
  ref.set_faults(&inj);
  // Resume in slices deliberately unaligned with the flap period, so
  // outage boundaries fall inside slices and on their edges.
  RunStats ref_stats;
  for (double budget = 0.7;; budget += 0.7) {
    ref_stats = ref.run(budget);
    if (ref.all_finished() || budget > 96.0) break;
  }
  const RunStats final_ref = ref.run();  // drain whatever remains
  EXPECT_GT(final_ref.events, 0);

  for (const int shards : {1, 2, 4}) {
    const std::string label = std::to_string(shards) + "shards";
    TimeWarpEngine eng(g, factory, make_uniform_delay(0.0, 1.0), seed,
                       TimeWarpEngine::Options{shards, 0, 256, {}});
    eng.set_faults(&inj);
    const RunStats par_stats = eng.run();
    expect_stats_identical(par_stats, final_ref, label);
    expect_hosts_identical(eng, ref, g, label);
    expect_speculation_conserved(eng, label);
  }
}

// All-zero delays are the conservative engine's worst case (zero
// lookahead collapses it to wave rounds); the optimistic engine has no
// windows to collapse and must still commit the identical result.
TEST(TimeWarpEngine, ZeroDelayCascadeIsBitIdentical) {
  class Relay final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) {
        ctx.send(ctx.incident()[0], Message{1}, MsgClass::kAlgorithm);
      }
    }
    void on_message(Context& ctx, const Message& m) override {
      hops = m.type;
      for (EdgeId e : ctx.incident()) {
        if (ctx.neighbor(e) > ctx.self()) {
          ctx.send(e, Message{m.type + 1}, MsgClass::kAlgorithm);
        }
      }
      ctx.finish();
    }
    std::unique_ptr<Process> save_state() const override {
      return std::make_unique<Relay>(*this);
    }
    void restore_state(const Process& saved) override {
      *this = dynamic_cast<const Relay&>(saved);
    }
    int hops = 0;
  };
  Rng rng(7);
  const Graph g = path_graph(12, WeightSpec::constant(4), rng);
  const auto factory = [](NodeId) { return std::make_unique<Relay>(); };

  Network ref(g, factory, make_uniform_delay(0.0, 0.0), 5);
  ref.set_keyed_delays(true);
  const RunStats ref_stats = ref.run();
  EXPECT_EQ(ref_stats.completion_time, 0.0);

  TimeWarpEngine eng(g, factory, make_uniform_delay(0.0, 0.0), 5,
                     TimeWarpEngine::Options{3, 0, 256, {}});
  const RunStats par_stats = eng.run();
  expect_stats_identical(par_stats, ref_stats, "zero-delay cascade");
  for (NodeId v = 1; v < g.node_count(); ++v) {
    EXPECT_EQ(eng.process_as<Relay>(v).hops, ref.process_as<Relay>(v).hops)
        << "node " << v;
  }
  expect_speculation_conserved(eng, "zero-delay cascade");
}

TEST(TimeWarpEngine, RunIsSingleShot) {
  Rng rng(2);
  const Graph g = path_graph(4, WeightSpec::constant(1), rng);
  TimeWarpEngine eng(
      g, [](NodeId) { return std::make_unique<Storm>(1); },
      make_exact_delay(), 1, TimeWarpEngine::Options{2, 0, 256, {}});
  eng.run();
  EXPECT_THROW(eng.run(), std::exception);
}

TEST(TimeWarpEngine, ThreadCountMayDifferFromShardCount) {
  // Oversubscribed shards (threads < shards) change only who executes a
  // shard, never the result.
  Rng rng(4);
  const Graph g = connected_gnp(14, 0.3, WeightSpec::uniform(1, 8), rng);
  const auto factory = [](NodeId) { return std::make_unique<Storm>(2); };
  TimeWarpEngine wide(g, factory, make_uniform_delay(0.0, 1.0), 11,
                      TimeWarpEngine::Options{4, 0, 256, {}});
  const RunStats a = wide.run();
  TimeWarpEngine narrow(g, factory, make_uniform_delay(0.0, 1.0), 11,
                        TimeWarpEngine::Options{4, 1, 256, {}});
  const RunStats b = narrow.run();
  expect_stats_identical(a, b, "threads=4 vs threads=1");
  // Three threads for four shards: one thread runs two shards.
  TimeWarpEngine uneven(g, factory, make_uniform_delay(0.0, 1.0), 11,
                        TimeWarpEngine::Options{4, 3, 256, {}});
  const RunStats c = uneven.run();
  expect_stats_identical(a, c, "threads=4 vs threads=3");
  expect_hosts_identical(wide, uneven, g, "threads=4 vs threads=3");
}

// A tiny speculation quantum forces many more GVT rounds (and typically
// more rollback traffic) than the default; the committed result must
// not notice.
TEST(TimeWarpEngine, QuantumDoesNotChangeTheCommittedRun) {
  Rng rng(3);
  const Graph g = connected_gnp(16, 0.25, WeightSpec::uniform(1, 9), rng);
  const auto factory = [](NodeId) { return std::make_unique<Storm>(3); };
  TimeWarpEngine coarse(g, factory, make_uniform_delay(0.0, 1.0), 13,
                        TimeWarpEngine::Options{4, 0, 256, {}});
  const RunStats a = coarse.run();
  TimeWarpEngine fine(g, factory, make_uniform_delay(0.0, 1.0), 13,
                      TimeWarpEngine::Options{4, 0, 2, {}});
  const RunStats b = fine.run();
  EXPECT_GT(fine.rounds(), coarse.rounds());
  expect_stats_identical(a, b, "quantum=256 vs quantum=2");
  expect_speculation_conserved(fine, "quantum=2");
}

}  // namespace
}  // namespace csca
