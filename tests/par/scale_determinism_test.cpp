// Pooled node state + coalesced mailboxes: bit-identity matrix.
//
// The million-node capacity work (docs/scale.md) changed memory layout
// only — PooledStore arenas instead of per-node unique_ptr factories,
// and per-destination cross-shard batches instead of per-message SPSC
// nodes. Nothing here may move a single event: every engine must
// produce a bit-identical ledger with pooled vs factory state, the
// sharded engine must match its keyed sequential reference at every
// shard count, and a RunPool sweep of sharded runs must not depend on
// the worker count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "par/run_pool.h"
#include "par/shard_engine.h"
#include "sim/network.h"
#include "sim/sync_engine.h"
#include "par_fixtures.h"

namespace csca {
namespace {

class SyncStorm final : public SyncProcess {
 public:
  explicit SyncStorm(std::int64_t ttl) : ttl_(ttl) {}
  void on_start(SyncContext& ctx) override {
    if (ctx.self() != 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(SyncContext& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1}}, MsgClass::kAlgorithm);
    }
  }

 private:
  std::int64_t ttl_;
};

Graph storm_graph() {
  Rng rng(7);
  return grid_graph(8, 8, WeightSpec::uniform(1, 16), rng);
}

constexpr std::int64_t kTtl = 5;
constexpr std::uint64_t kSeed = 1234;

Network::ProcessStore pooled_storms(const Graph& g) {
  return Network::ProcessStore::pooled<Storm>(
      g.node_count(), [](NodeId) { return Storm(kTtl); });
}

TEST(PooledStore, NetworkPooledMatchesFactoryBitForBit) {
  const Graph g = storm_graph();
  Network a(
      g, [](NodeId) { return std::make_unique<Storm>(kTtl); },
      make_uniform_delay(0.1, 0.9), kSeed);
  Network b(g, pooled_storms(g), make_uniform_delay(0.1, 0.9), kSeed);
  EXPECT_EQ(b.process_state_bytes(),
            static_cast<std::size_t>(g.node_count()) * sizeof(Storm));
  expect_stats_identical(a.run(), b.run(), "network pooled-vs-factory");
}

TEST(PooledStore, SyncEnginePooledMatchesFactoryBitForBit) {
  const Graph g = storm_graph();
  SyncEngine a(g, [](NodeId) { return std::make_unique<SyncStorm>(kTtl); });
  SyncEngine b(g, SyncEngine::ProcessStore::pooled<SyncStorm>(
                      g.node_count(), [](NodeId) { return SyncStorm(kTtl); }));
  EXPECT_EQ(b.process_state_bytes(),
            static_cast<std::size_t>(g.node_count()) * sizeof(SyncStorm));
  expect_stats_identical(a.run(), b.run(), "sync pooled-vs-factory");
}

// The sharded engine with a pooled store must match the keyed
// sequential Network at 1, 2 and 4 shards — the same contract the
// factory path pins in shard_engine_test.cpp, now through the
// zero-allocation entry point and the coalesced mailboxes.
TEST(PooledStore, ShardEnginePooledMatchesKeyedSequentialAcrossShards) {
  const Graph g = storm_graph();
  Network ref(
      g, [](NodeId) { return std::make_unique<Storm>(kTtl); },
      make_uniform_delay(0.1, 0.9), kSeed);
  ref.set_keyed_delays(true);
  const RunStats seq = ref.run();
  for (const int shards : {1, 2, 4}) {
    ShardEngine eng(g, pooled_storms(g), make_uniform_delay(0.1, 0.9),
                    kSeed, ShardEngine::Options{shards, 0, {}});
    EXPECT_EQ(eng.process_state_bytes(),
              static_cast<std::size_t>(g.node_count()) * sizeof(Storm));
    expect_stats_identical(seq, eng.run(),
                           "pooled@" + std::to_string(shards) + "shards");
  }
}

// Mailbox-coalescing determinism across the multi-run harness: a sweep
// of sharded runs must produce the same per-run ledgers at 1 and 4
// RunPool workers. Batched channel traffic keeps per-channel FIFO
// order, so worker scheduling may not leak into any run's result.
TEST(PooledStore, ShardedSweepIdenticalAcrossRunPoolJobs) {
  const Graph g = storm_graph();
  const auto one_run = [&](std::size_t i) {
    ShardEngine eng(g, pooled_storms(g), make_uniform_delay(0.1, 0.9),
                    kSeed + i, ShardEngine::Options{2, 0, {}});
    return eng.run();
  };
  const std::size_t runs = 6;
  RunPool pool1(1);
  RunPool pool4(4);
  const std::vector<RunStats> a = pool1.map(runs, one_run);
  const std::vector<RunStats> b = pool4.map(runs, one_run);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < runs; ++i) {
    expect_stats_identical(a[i], b[i],
                           "jobs1-vs-jobs4 run " + std::to_string(i));
  }
}

}  // namespace
}  // namespace csca
