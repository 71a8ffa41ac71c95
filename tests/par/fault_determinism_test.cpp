// The PR-3 bit-identity contract extended to fault injection: fault
// fates key off the same per-channel send counts as the keyed delay
// draws, so a faulted run on the sharded conservative engine must match
// the keyed sequential Network exactly — at every shard count, under
// every fault class — and multi-run harness results must not depend on
// the worker count.
#include "par/shard_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/reliable_link.h"
#include "graph/generators.h"
#include "par/run_pool.h"
#include "par/timewarp_engine.h"
#include "sim/network.h"
#include "sim/sync_engine.h"
#include "spt/bellman_ford.h"
#include "par_fixtures.h"

namespace csca {
namespace {

FaultPlan drop_dup_plan() {
  FaultPlan p;
  p.drop_rate = 0.1;
  p.dup_rate = 0.1;
  p.salt = 0xFA17;
  return p;
}

FaultPlan crash_plan(const Graph& g) {
  FaultPlan p;
  p.crashes.push_back({g.node_count() / 2, 1.5});
  p.crashes.push_back({g.node_count() - 1, 0.0});
  return p;
}

FaultPlan outage_plan(const Graph& g) {
  FaultPlan p;
  for (EdgeId e = 0; e < g.edge_count(); e += 3) {
    p.outages.push_back({e, 0.5, 2.5});
  }
  return p;
}

FaultPlan garble_plan() {
  FaultPlan p;
  p.garble_rate = 0.15;
  p.salt = 0xFA17;
  return p;
}

// A relaying node (not the storm's initiator) corrupts its own sends;
// the duplicate band makes some equivocations arrive twice.
FaultPlan equivocate_plan(const Graph& g) {
  FaultPlan p;
  p.byzantine.push_back(g.node_count() / 3);
  p.equivocate_rate = 0.5;
  p.dup_rate = 0.1;
  p.salt = 0xFA17;
  return p;
}

FaultPlan forge_plan(const Graph& g) {
  FaultPlan p;
  p.byzantine.push_back(g.node_count() / 3);
  p.forge_rate = 0.5;
  p.salt = 0xFA17;
  return p;
}

// Keyed Network vs ShardEngine at 1/2/4 shards and TimeWarp at 2/4
// shards: ledger, per-node finish times and per-link per-class counts
// bit-identical for every fault class on both random delay schedules.
TEST(FaultDeterminism, ShardEngineMatchesKeyedNetworkUnderAllFaultClasses) {
  Rng rng(3);
  const Graph g = connected_gnp(24, 0.2, WeightSpec::uniform(1, 9), rng);
  // ClampedStorm: garbling may rewrite the TTL payload, so the workload
  // clamps it — fates AND corrupted words must then replay identically.
  const auto factory = [](NodeId) {
    return std::make_unique<ClampedStorm>(3);
  };
  struct Plan {
    const char* name;
    FaultPlan plan;
  };
  const Plan plans[] = {
      {"dropdup", drop_dup_plan()},
      {"crash", crash_plan(g)},
      {"outage", outage_plan(g)},
      {"garble", garble_plan()},
      {"equivocate", equivocate_plan(g)},
      {"forge", forge_plan(g)},
  };
  struct Schedule {
    const char* name;
    std::function<std::unique_ptr<DelayModel>()> make;
    std::uint64_t seed;
  };
  const Schedule schedules[] = {
      {"uniform", [] { return make_uniform_delay(0.0, 1.0); }, 42},
      {"twopoint", [] { return make_two_point_delay(0.7); }, 99},
  };
  for (const Plan& p : plans) {
    for (const Schedule& sched : schedules) {
      const FaultInjector inj(p.plan, g, sched.seed);
      Network ref(g, factory, sched.make(), sched.seed);
      ref.set_keyed_delays(true);
      ref.set_faults(&inj);
      const RunStats ref_stats = ref.run();
      EXPECT_GT(ref_stats.events, 0) << p.name;

      for (const int shards : {1, 2, 4}) {
        const std::string label = std::string(p.name) + "/" + sched.name +
                                  "@" + std::to_string(shards) + "shards";
        ShardEngine eng(g, factory, sched.make(), sched.seed,
                        ShardEngine::Options{shards, 0, {}});
        eng.set_faults(&inj);
        const RunStats par_stats = eng.run();
        expect_stats_identical(par_stats, ref_stats, label);
        expect_hosts_identical(eng, ref, g, label);
      }
      for (const int shards : {2, 4}) {
        const std::string label = std::string(p.name) + "/" + sched.name +
                                  "@" + std::to_string(shards) + "tw";
        TimeWarpEngine eng(g, factory, sched.make(), sched.seed,
                           TimeWarpEngine::Options{shards, 0, 256, {}});
        eng.set_faults(&inj);
        const RunStats tw_stats = eng.run();
        expect_stats_identical(tw_stats, ref_stats, label);
        expect_hosts_identical(eng, ref, g, label);
      }
    }
  }
}

// The ARQ layer rides on ordinary sends and self-schedules, so a
// recovered protocol (flooding behind ARQ over a lossy channel) must
// also replay bit-identically — including every host's retransmission
// schedule — at every shard count.
TEST(FaultDeterminism, ArqRecoveryIsBitIdenticalAcrossShardCounts) {
  Rng rng(9);
  const Graph g = connected_gnp(16, 0.25, WeightSpec::uniform(1, 6), rng);
  const auto factory = arq_factory(
      [](NodeId) { return std::make_unique<Storm>(2); });
  FaultPlan plan = drop_dup_plan();
  const std::uint64_t seed = 17;
  const FaultInjector inj(plan, g, seed);

  Network ref(g, factory, make_uniform_delay(0.0, 1.0), seed);
  ref.set_keyed_delays(true);
  ref.set_faults(&inj);
  const RunStats ref_stats = ref.run();

  std::int64_t total_retransmits = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (EdgeId e : g.incident(v)) {
      total_retransmits += arq_host(ref, v).retransmit_count(e);
    }
  }
  EXPECT_GT(total_retransmits, 0) << "plan should force retransmissions";

  for (const int shards : {1, 2, 4}) {
    const std::string label = std::to_string(shards) + "shards";
    ShardEngine eng(g, factory, make_uniform_delay(0.0, 1.0), seed,
                    ShardEngine::Options{shards, 0, {}});
    eng.set_faults(&inj);
    const RunStats par_stats = eng.run();
    expect_stats_identical(par_stats, ref_stats, label);
    expect_hosts_identical(eng, ref, g, label);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      for (EdgeId e : g.incident(v)) {
        EXPECT_EQ(arq_host(eng, v).retransmit_times(e),
                  arq_host(ref, v).retransmit_times(e))
            << label << " node " << v << " edge " << e;
      }
    }
  }
}

// The pulse domain joins the determinism contract: SyncEngine under
// every builtin fault-plan shape, driven through the RunPool at jobs 1
// and 4 — per-plan output digests (the Bellman-Ford distances) and full
// ledgers must be identical across job counts and across reruns.
TEST(FaultDeterminism, SyncEngineFaultPlansAreJobCountInvariant) {
  Rng rng(19);
  const Graph g = connected_gnp(18, 0.25, WeightSpec::uniform(1, 5), rng);
  std::vector<Weight> orig_w;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    orig_w.push_back(g.weight(e));
  }
  const auto factory = [&orig_w](NodeId v) {
    return std::make_unique<InSynchBellmanFord>(v, 0, &orig_w);
  };
  const std::vector<std::string> plan_names = {"none", "drop1pct",
                                               "crash_one", "link_flap"};

  struct Cell {
    std::string digest;
    RunStats stats;
  };
  const auto one_cell = [&](std::size_t i) {
    const std::string& name = plan_names[i];
    const FaultPlan plan = make_builtin_fault_plan(name, g);
    const FaultInjector inj(plan, g, 1000 + i);
    SyncEngine eng(g, factory);
    eng.set_faults(&inj);
    Cell cell;
    cell.stats = eng.run();
    // The schedule-invariant output: final distances per node (-1 where
    // the faulted wave never arrived — degradation is fine, but it must
    // be the SAME degradation every time).
    std::ostringstream digest;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      digest << eng.process_as<InSynchBellmanFord>(v).dist() << ",";
    }
    cell.digest = digest.str();
    return cell;
  };

  std::vector<Cell> serial;
  for (std::size_t i = 0; i < plan_names.size(); ++i) {
    serial.push_back(one_cell(i));
  }
  // The fault-free reference reaches everyone; at least one faulted
  // plan visibly degrades or re-routes nothing (either is fine) — what
  // matters below is bit-identity, not the amount of damage.
  EXPECT_EQ(serial[0].digest.find("-1"), std::string::npos);

  for (const int jobs : {1, 4}) {
    RunPool pool(jobs);
    const std::vector<Cell> pooled = pool.map(plan_names.size(), one_cell);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const std::string label =
          plan_names[i] + "@jobs" + std::to_string(jobs);
      EXPECT_EQ(pooled[i].digest, serial[i].digest) << label;
      expect_stats_identical(pooled[i].stats, serial[i].stats, label);
    }
  }
}

// Multi-run harness leg: a batch of independent faulted runs mapped on
// the RunPool returns the same ledgers at jobs = 1 and jobs = 4.
TEST(FaultDeterminism, RunPoolJobsCountDoesNotChangeFaultedResults) {
  Rng rng(5);
  const Graph g = connected_gnp(14, 0.3, WeightSpec::uniform(1, 8), rng);
  const auto factory = [](NodeId) { return std::make_unique<Storm>(3); };
  const FaultPlan plan = drop_dup_plan();
  const auto one_run = [&](std::size_t i) {
    const std::uint64_t seed = 100 + i;
    const FaultInjector inj(plan, g, seed);
    Network net(g, factory, make_uniform_delay(0.0, 1.0), seed);
    net.set_keyed_delays(true);
    net.set_faults(&inj);
    return net.run();
  };
  const std::size_t kRuns = 8;
  std::vector<RunStats> serial;
  for (std::size_t i = 0; i < kRuns; ++i) serial.push_back(one_run(i));
  RunPool pool(4);
  const std::vector<RunStats> pooled = pool.map(kRuns, one_run);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < kRuns; ++i) {
    expect_stats_identical(pooled[i], serial[i],
                           "run " + std::to_string(i));
  }
}

}  // namespace
}  // namespace csca
