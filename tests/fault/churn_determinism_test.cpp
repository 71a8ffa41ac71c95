// The churn determinism matrix: a fixed ChurnPlan (alone or composed
// with a message-fault plan) must produce byte-identical ledgers,
// per-node finish times and per-link per-class counters on the keyed
// sequential Network, the conservative ShardEngine at 1/2/4 shards and
// the optimistic TimeWarpEngine at 1/2/4 shards — and the pulse-domain
// SyncEngine must be job-count invariant under the same plans through
// the RunPool. Churn liveness is compiled into the injector as pure
// (plan, id, t) lookups, which is exactly what this matrix certifies.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/churn_plan.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "par/run_pool.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"
#include "sim/network.h"
#include "sim/sync_engine.h"
#include "spt/bellman_ford.h"
#include "../par/par_fixtures.h"

namespace csca {
namespace {

// One hop more than the par suites' storm: enough traffic that
// churn-down windows and absence intervals bite mid-run.
constexpr std::int64_t kStormTtl = 4;

// Fast churn variant of the builtin plans: the builtin epoch spacing
// (2 * max weight) is tuned for protocol runs; the storm burns out
// sooner, so compress the schedule to make the windows land mid-storm.
ChurnPlan compressed(const Graph& g, const std::string& name) {
  ChurnPlan plan = make_builtin_churn_plan(name, g);
  for (std::size_t k = 0; k < plan.epochs.size(); ++k) {
    plan.epochs[k].at = 1.5 * static_cast<double>(k + 1);
  }
  plan.validate(g);
  return plan;
}

// Network (keyed) vs ShardEngine{1,2,4} vs TimeWarpEngine{1,2,4} under
// every builtin churn shape, alone and composed with a drop/dup/garble
// fault plan, on a random delay schedule.
TEST(ChurnDeterminism, AllEnginesBitIdenticalUnderChurn) {
  Rng rng(7);
  const Graph g = connected_gnp(20, 0.25, WeightSpec::uniform(1, 4), rng);
  const auto factory = [](NodeId) {
    return std::make_unique<ClampedStorm>(kStormTtl);
  };
  const std::uint64_t seed = 42;

  FaultPlan composed;
  composed.drop_rate = 0.05;
  composed.dup_rate = 0.05;
  composed.garble_rate = 0.05;
  composed.salt = 0xFA17;

  for (const char* churn_name : {"edge_churn", "node_churn", "full_churn"}) {
    for (const bool with_faults : {false, true}) {
      const ChurnPlan churn = compressed(g, churn_name);
      const FaultInjector inj(with_faults ? composed : FaultPlan{}, churn, g,
                              seed);
      ASSERT_TRUE(inj.active());

      Network ref(g, factory, make_uniform_delay(0.0, 1.0), seed);
      ref.set_keyed_delays(true);
      ref.set_faults(&inj);
      const RunStats ref_stats = ref.run();
      EXPECT_GT(ref_stats.events, 0) << churn_name;

      for (const int shards : {1, 2, 4}) {
        const std::string label = std::string(churn_name) +
                                  (with_faults ? "+faults" : "") + "@" +
                                  std::to_string(shards);
        ShardEngine cons(g, factory, make_uniform_delay(0.0, 1.0), seed,
                         ShardEngine::Options{shards, 0, {}});
        cons.set_faults(&inj);
        expect_stats_identical(cons.run(), ref_stats, "shard/" + label);
        expect_hosts_identical(cons, ref, g, "shard/" + label);

        TimeWarpEngine opt(g, factory, make_uniform_delay(0.0, 1.0), seed,
                           TimeWarpEngine::Options{shards, 0, 256, {}});
        opt.set_faults(&inj);
        expect_stats_identical(opt.run(), ref_stats, "timewarp/" + label);
        expect_hosts_identical(opt, ref, g, "timewarp/" + label);
      }
    }
  }
}

// Churn must actually change the run (the matrix above would pass
// vacuously if the injector ignored the plan).
TEST(ChurnDeterminism, ChurnVisiblyPerturbsTheRun) {
  Rng rng(7);
  const Graph g = connected_gnp(20, 0.25, WeightSpec::uniform(1, 4), rng);
  const auto factory = [](NodeId) {
    return std::make_unique<ClampedStorm>(kStormTtl);
  };
  const std::uint64_t seed = 42;

  Network bare(g, factory, make_uniform_delay(0.0, 1.0), seed);
  bare.set_keyed_delays(true);
  const RunStats bare_stats = bare.run();

  const ChurnPlan churn = compressed(g, "full_churn");
  const FaultInjector inj(FaultPlan{}, churn, g, seed);
  Network churned(g, factory, make_uniform_delay(0.0, 1.0), seed);
  churned.set_keyed_delays(true);
  churned.set_faults(&inj);
  const RunStats churned_stats = churned.run();

  const bool perturbed =
      bare_stats.events != churned_stats.events ||
      bare_stats.algorithm_messages != churned_stats.algorithm_messages ||
      bare_stats.algorithm_cost != churned_stats.algorithm_cost ||
      bare_stats.completion_time != churned_stats.completion_time;
  EXPECT_TRUE(perturbed) << "full_churn left the run untouched";
}

// The pulse domain joins the matrix: SyncEngine under every builtin
// churn plan (composed with a drop plan), driven through the RunPool at
// jobs 1 and 4 — digests and ledgers identical across job counts.
TEST(ChurnDeterminism, SyncEngineChurnIsJobCountInvariant) {
  Rng rng(19);
  const Graph g = connected_gnp(18, 0.25, WeightSpec::uniform(1, 5), rng);
  std::vector<Weight> orig_w;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    orig_w.push_back(g.weight(e));
  }
  const auto factory = [&orig_w](NodeId v) {
    return std::make_unique<InSynchBellmanFord>(v, 0, &orig_w);
  };
  const std::vector<std::string> churn_names = {"edge_churn", "node_churn",
                                                "full_churn"};

  struct Cell {
    std::string digest;
    RunStats stats;
  };
  const auto one_cell = [&](std::size_t i) {
    const ChurnPlan churn = make_builtin_churn_plan(churn_names[i], g);
    FaultPlan drops;
    drops.drop_rate = 0.01;
    const FaultInjector inj(drops, churn, g, 1000 + i);
    SyncEngine eng(g, factory);
    eng.set_faults(&inj);
    Cell cell;
    cell.stats = eng.run();
    std::ostringstream digest;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      digest << eng.process_as<InSynchBellmanFord>(v).dist() << ",";
    }
    cell.digest = digest.str();
    return cell;
  };

  std::vector<Cell> serial;
  for (std::size_t i = 0; i < churn_names.size(); ++i) {
    serial.push_back(one_cell(i));
  }
  for (const int jobs : {1, 4}) {
    RunPool pool(jobs);
    const std::vector<Cell> pooled = pool.map(churn_names.size(), one_cell);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const std::string label =
          churn_names[i] + "@jobs" + std::to_string(jobs);
      EXPECT_EQ(pooled[i].digest, serial[i].digest) << label;
      expect_stats_identical(pooled[i].stats, serial[i].stats, label);
    }
  }
}

// Multi-run harness leg for the async matrix: the full churned cell
// grid (plan x engine) mapped on the RunPool returns byte-identical
// ledgers at jobs 1 and 4.
TEST(ChurnDeterminism, RunPoolJobsCountDoesNotChangeChurnedResults) {
  Rng rng(5);
  const Graph g = connected_gnp(14, 0.3, WeightSpec::uniform(1, 4), rng);
  const auto factory = [](NodeId) {
    return std::make_unique<ClampedStorm>(kStormTtl);
  };
  const std::vector<std::string> churn_names = {"edge_churn", "node_churn",
                                                "full_churn"};

  // Cell i: churn plan (i / 3) on engine kind (i % 3).
  const auto one_cell = [&](std::size_t i) {
    const std::uint64_t seed = 100 + i / 3;
    const ChurnPlan churn = make_builtin_churn_plan(churn_names[i / 3], g);
    const FaultInjector inj(FaultPlan{}, churn, g, seed);
    if (i % 3 == 0) {
      Network net(g, factory, make_uniform_delay(0.0, 1.0), seed);
      net.set_keyed_delays(true);
      net.set_faults(&inj);
      return net.run();
    }
    if (i % 3 == 1) {
      ShardEngine eng(g, factory, make_uniform_delay(0.0, 1.0), seed,
                      ShardEngine::Options{2, 0, {}});
      eng.set_faults(&inj);
      return eng.run();
    }
    TimeWarpEngine eng(g, factory, make_uniform_delay(0.0, 1.0), seed,
                       TimeWarpEngine::Options{2, 0, 256, {}});
    eng.set_faults(&inj);
    return eng.run();
  };

  const std::size_t kCells = 9;
  std::vector<RunStats> serial;
  for (std::size_t i = 0; i < kCells; ++i) serial.push_back(one_cell(i));
  for (std::size_t i = 0; i + 3 <= kCells; i += 3) {
    expect_stats_identical(serial[i], serial[i + 1],
                           "engines disagree, plan " + churn_names[i / 3]);
    expect_stats_identical(serial[i], serial[i + 2],
                           "engines disagree, plan " + churn_names[i / 3]);
  }
  RunPool pool(4);
  const std::vector<RunStats> pooled = pool.map(kCells, one_cell);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < kCells; ++i) {
    expect_stats_identical(pooled[i], serial[i],
                           "cell " + std::to_string(i));
  }
}

}  // namespace
}  // namespace csca
