#include "par/shard_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/subjects.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "par_fixtures.h"

namespace csca {
namespace {

// The central determinism contract, exercised end to end: every builtin
// subject, on every smoke family, under every portfolio schedule,
// produces the same digest on the sharded engine at 1, 2 and 4 shards
// as the sequential engine — and the parallel ledger is identical at
// every shard count. For the deterministic schedules (exact, edgefrac)
// keyed draws coincide with the sequential engine's plain draws, so the
// parallel ledger must additionally match the sequential one
// bit-for-bit.
TEST(ShardEngineDeterminism, MatrixAcrossSubjectsFamiliesSchedulesShards) {
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
          const SubjectOutcome par =
              subject.run_par(family.graph, spec, shards, ParBackend::kShard);
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

// Engine-level equivalence on the random schedules, where digests alone
// would under-test: a keyed sequential Network is the reference, and
// the sharded engine must reproduce its ledger, per-node finish times,
// and per-link message counts exactly at every shard count.
TEST(ShardEngine, MatchesKeyedNetworkBitForBitOnRandomSchedules) {
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
      ShardEngine eng(g, factory, sched.make(), sched.seed,
                      ShardEngine::Options{shards, 0, {}});
      const RunStats par_stats = eng.run();
      expect_stats_identical(par_stats, ref_stats, label);
      for (NodeId v = 0; v < g.node_count(); ++v) {
        EXPECT_EQ(eng.finish_time(v), ref.finish_time(v)) << label;
      }
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        EXPECT_EQ(eng.edge_message_count(e), ref.edge_message_count(e))
            << label << " edge " << e;
        EXPECT_EQ(eng.edge_message_count(e, MsgClass::kAlgorithm),
                  ref.edge_message_count(e, MsgClass::kAlgorithm))
            << label << " edge " << e;
        EXPECT_EQ(eng.edge_message_count(e, MsgClass::kControl),
                  ref.edge_message_count(e, MsgClass::kControl))
            << label << " edge " << e;
      }
      EXPECT_EQ(eng.max_edge_message_count(),
                ref.max_edge_message_count())
          << label;
    }
  }
}

// Sends numbered bursts over a weight-1 edge whose endpoints live in
// different shards (n = 2, k = 2 forces the cut). With UniformDelay
// the keyed draws routinely collide near zero, so cross-shard delivery
// order rests entirely on the FIFO clamp + genealogical tie-break.
TEST(ShardEngine, FifoPreservedAcrossShardBoundaryUnderZeroDelayTies) {
  class BurstSender final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() != 0) return;
      for (int i = 0; i < 100; ++i) ctx.send(ctx.incident()[0], Message{i}, MsgClass::kAlgorithm);
    }
    void on_message(Context& ctx, const Message& m) override {
      received.push_back(m.type);
      if (ctx.self() == 1 && m.type % 10 == 0) {
        for (int i = 0; i < 5; ++i) {
          ctx.send(m.edge, Message{1000 + 5 * (m.type / 10) + i}, MsgClass::kAlgorithm);
        }
      }
    }
    std::vector<int> received;
  };
  Graph g(2);
  g.add_edge(0, 1, 1);
  ShardEngine eng(
      g, [](NodeId) { return std::make_unique<BurstSender>(); },
      make_uniform_delay(0.0, 1.0), 2026, ShardEngine::Options{2, 0, {}});
  ASSERT_EQ(eng.shard_count(), 2);
  ASSERT_NE(eng.partition().shard(0), eng.partition().shard(1));
  eng.run();
  const auto& fwd = eng.process_as<BurstSender>(1).received;
  ASSERT_EQ(fwd.size(), 100u);
  EXPECT_TRUE(std::is_sorted(fwd.begin(), fwd.end()));
  const auto& back = eng.process_as<BurstSender>(0).received;
  ASSERT_EQ(back.size(), 50u);
  EXPECT_TRUE(std::is_sorted(back.begin(), back.end()));
}

// All-zero delays collapse every event onto t = 0: the conservative
// bounds never open a window and the engine must fall back to wave
// rounds, delivering causal generation by causal generation — still
// bit-identical to the keyed sequential run.
TEST(ShardEngine, ZeroDelayCascadeRunsInWaveRounds) {
  class Relay final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) ctx.send(ctx.incident()[0], Message{1}, MsgClass::kAlgorithm);
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
    int hops = 0;
  };
  Rng rng(7);
  const Graph g = path_graph(12, WeightSpec::constant(4), rng);
  const auto factory = [](NodeId) { return std::make_unique<Relay>(); };

  Network ref(g, factory, make_uniform_delay(0.0, 0.0), 5);
  ref.set_keyed_delays(true);
  const RunStats ref_stats = ref.run();
  EXPECT_EQ(ref_stats.completion_time, 0.0);

  ShardEngine eng(g, factory, make_uniform_delay(0.0, 0.0), 5,
                  ShardEngine::Options{3, 0, {}});
  const RunStats par_stats = eng.run();
  expect_stats_identical(par_stats, ref_stats, "zero-delay cascade");
  EXPECT_GT(eng.wave_rounds(), 0)
      << "zero lookahead everywhere must force wave rounds";
  for (NodeId v = 1; v < g.node_count(); ++v) {
    EXPECT_EQ(eng.process_as<Relay>(v).hops,
              ref.process_as<Relay>(v).hops)
        << "node " << v;
  }
}

TEST(ShardEngine, RunIsSingleShot) {
  Rng rng(2);
  const Graph g = path_graph(4, WeightSpec::constant(1), rng);
  ShardEngine eng(
      g, [](NodeId) { return std::make_unique<Storm>(1); },
      make_exact_delay(), 1, ShardEngine::Options{2, 0, {}});
  eng.run();
  EXPECT_THROW(eng.run(), std::exception);
}

TEST(ShardEngine, ThreadCountMayDifferFromShardCount) {
  // threads < shards (oversubscribed shards share workers) must not
  // change the result — only the schedule of who executes which shard.
  Rng rng(4);
  const Graph g = connected_gnp(14, 0.3, WeightSpec::uniform(1, 8), rng);
  const auto factory = [](NodeId) { return std::make_unique<Storm>(2); };
  ShardEngine wide(g, factory, make_uniform_delay(0.0, 1.0), 11,
                   ShardEngine::Options{4, 0, {}});
  const RunStats a = wide.run();
  ShardEngine narrow(g, factory, make_uniform_delay(0.0, 1.0), 11,
                     ShardEngine::Options{4, 1, {}});
  const RunStats b = narrow.run();
  expect_stats_identical(a, b, "threads=4 vs threads=1");
  // Three threads for four shards: one thread runs two shards.
  ShardEngine uneven(g, factory, make_uniform_delay(0.0, 1.0), 11,
                     ShardEngine::Options{4, 3, {}});
  const RunStats c = uneven.run();
  expect_stats_identical(a, c, "threads=4 vs threads=3");
}

}  // namespace
}  // namespace csca
