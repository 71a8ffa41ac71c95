// Rollback torture: deterministic pace hooks manufacture stragglers by
// stalling one shard while its peers speculate deep past it, then
// releasing the backlog. The forced rollbacks must leave no trace —
// protocol state restores byte-exactly (observed through stateful
// hosts), every anti-message annihilates exactly one positive, and the
// committed ledger never drifts from the keyed sequential reference.
#include "par/timewarp_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "sim/network.h"
#include "par_fixtures.h"

namespace csca {
namespace {

// A storm whose hosts carry observable state: every delivery appends
// (sender, hop) to a log. If a rollback ever failed to restore a host
// byte-exactly — a lost entry, a duplicate from a re-executed handler
// whose first execution was not fully undone — the log diverges from
// the sequential reference's.
class LoggingStorm final : public Process {
 public:
  explicit LoggingStorm(std::int64_t ttl) : ttl_(ttl) {}
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_, ctx.self()}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    log.push_back(m.at(1) * 100 + ttl);
    if (ttl <= 0) return;
    const MsgClass cls =
        (ttl % 2 != 0) ? MsgClass::kAlgorithm : MsgClass::kControl;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, ctx.self()}}, cls);
    }
  }
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<LoggingStorm>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const LoggingStorm&>(saved);
  }
  std::vector<std::int64_t> log;

 private:
  std::int64_t ttl_;
};

void expect_logs_identical(TimeWarpEngine& eng, Network& ref, const Graph& g,
                           const std::string& label) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(eng.process_as<LoggingStorm>(v).log,
              ref.process_as<LoggingStorm>(v).log)
        << label << " node " << v;
  }
}

// Stall one non-initiator shard for a stretch of rounds while the rest
// speculate far ahead of it, then release: the backlog's cross-shard
// sends all land in the peers' past.
TEST(Rollback, StalledShardForcesStragglersWithoutLedgerDrift) {
  Rng rng(3);
  const Graph g = connected_gnp(24, 0.2, WeightSpec::uniform(1, 9), rng);
  const auto factory = [](NodeId) {
    return std::make_unique<LoggingStorm>(3);
  };
  const std::uint64_t seed = 42;
  Network ref(g, factory, make_uniform_delay(0.0, 1.0), seed);
  ref.set_keyed_delays(true);
  const RunStats ref_stats = ref.run();
  EXPECT_GT(ref_stats.events, 100);

  TimeWarpEngine eng(g, factory, make_uniform_delay(0.0, 1.0), seed,
                     TimeWarpEngine::Options{4, 0, 256, {}});
  // Stall a shard that does not own the initiator (stalling node 0's
  // shard would just delay the whole storm instead of creating skew).
  const int stalled = (eng.partition().shard(0) + 1) % eng.shard_count();
  eng.set_pace_hook([stalled](int shard, std::int64_t round) {
    if (shard == stalled && round <= 8) return 0;
    return -1;  // configured quantum
  });
  const RunStats par_stats = eng.run();

  EXPECT_GT(eng.rollbacks(), 0) << "the stall must manufacture stragglers";
  EXPECT_GT(eng.rolled_back_events(), 0);
  EXPECT_EQ(eng.anti_messages(), eng.annihilations());
  EXPECT_EQ(eng.speculative_events(),
            eng.committed_events() + eng.rolled_back_events());
  expect_stats_identical(par_stats, ref_stats, "stalled shard");
  expect_logs_identical(eng, ref, g, "stalled shard");
}

// Rotating the stall across shards every few rounds keeps every shard
// alternating between running ahead and straggling behind — cascaded
// rollbacks (rollbacks that undo events whose own sends had already
// been speculated on by peers, recursively) are the steady state.
TEST(Rollback, RotatingStallsCascadeAndStillCommitTheSequentialRun) {
  Rng rng(9);
  const Graph g = connected_gnp(20, 0.3, WeightSpec::uniform(1, 9), rng);
  const auto factory = [](NodeId) {
    return std::make_unique<LoggingStorm>(4);
  };
  const std::uint64_t seed = 7;
  Network ref(g, factory, make_uniform_delay(0.0, 1.0), seed);
  ref.set_keyed_delays(true);
  const RunStats ref_stats = ref.run();

  TimeWarpEngine eng(g, factory, make_uniform_delay(0.0, 1.0), seed,
                     TimeWarpEngine::Options{4, 0, 32, {}});
  const int k = eng.shard_count();
  eng.set_pace_hook([k](int shard, std::int64_t round) {
    // A moving window of starvation: each shard stalls whenever the
    // rotor points at it, for the first 40 rounds.
    if (round <= 40 && shard == static_cast<int>((round / 2) % k)) return 0;
    return -1;
  });
  const RunStats par_stats = eng.run();

  EXPECT_GT(eng.rollbacks(), 0);
  // Cascades: strictly more events undone than rollback episodes means
  // rollbacks routinely cut more than their own straggler's suffix.
  EXPECT_GT(eng.rolled_back_events(), eng.rollbacks());
  EXPECT_EQ(eng.anti_messages(), eng.annihilations());
  EXPECT_EQ(eng.speculative_events(),
            eng.committed_events() + eng.rolled_back_events());
  expect_stats_identical(par_stats, ref_stats, "rotating stalls");
  expect_logs_identical(eng, ref, g, "rotating stalls");

  // Same engine, no interference: the pace hook changed only wasted
  // work, never the committed run.
  TimeWarpEngine calm(g, factory, make_uniform_delay(0.0, 1.0), seed,
                      TimeWarpEngine::Options{4, 0, 32, {}});
  const RunStats calm_stats = calm.run();
  expect_stats_identical(par_stats, calm_stats, "paced vs unpaced");
}

}  // namespace
}  // namespace csca
