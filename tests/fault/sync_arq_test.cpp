// The pulse-domain reliable-link layer: exactly-once FIFO delivery on a
// faulted SyncEngine, the deterministic retransmit schedule expressed in
// pulses, preservation of the in-synch discipline (Def. 4.2), checksum
// masking of garbled frames, and meter/ledger agreement.
#include "fault/sync_reliable_link.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "sim/sync_engine.h"
#include "spt/bellman_ford.h"
#include "util/rng.h"

namespace csca {
namespace {

// Node 0 bursts `count` numbered messages over edge 0 at pulse 0; node 1
// records payloads in delivery order.
class PulseSeqPeer final : public SyncProcess {
 public:
  explicit PulseSeqPeer(int count) : count_(count) {}
  void on_start(SyncContext& ctx) override {
    if (ctx.self() != 0) return;
    for (int i = 0; i < count_; ++i) {
      ctx.send(0, Message{100, {i}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(SyncContext&, const Message& m) override {
    EXPECT_EQ(m.type, 100);
    received.push_back(m.at(0));
  }
  std::vector<std::int64_t> received;

 private:
  int count_;
};

SyncEngine::ProcessFactory pulse_seq_factory(int count, ArqConfig cfg = {}) {
  return sync_arq_factory(
      [count](NodeId) { return std::make_unique<PulseSeqPeer>(count); },
      cfg);
}

Graph one_edge(Weight w) {
  Graph g(2);
  g.add_edge(0, 1, w);
  return g;
}

// Exactly-once, in-order delivery above the layer while the pulse
// channel below drops and duplicates.
TEST(SyncArq, ExactlyOnceFifoUnderDropAndDup) {
  const int kCount = 25;
  for (const std::uint64_t seed : {1u, 7u, 33u}) {
    FaultPlan plan;
    plan.drop_rate = 0.3;
    plan.dup_rate = 0.3;
    plan.salt = 0xFA17;
    const Graph g = one_edge(2);
    const FaultInjector inj(plan, g, seed);
    SyncEngine eng(g, pulse_seq_factory(kCount));
    eng.set_faults(&inj);
    eng.run();
    ASSERT_TRUE(eng.idle());
    auto& host = eng.process_as<SyncArqHost>(1);
    const auto& received =
        dynamic_cast<PulseSeqPeer&>(host.inner()).received;
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount))
        << "seed " << seed;
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(received[static_cast<std::size_t>(i)], i)
          << "seed " << seed;
    }
    EXPECT_GT(eng.process_as<SyncArqHost>(0).retransmit_count(0), 0)
        << "seed " << seed;
    EXPECT_FALSE(eng.process_as<SyncArqHost>(0).any_peer_dead());
    // The per-edge rules DefaultInvariantChecker::check_arq enforces on
    // the asynchronous host: every in-order DATA went up exactly once,
    // and nothing went up that the peer never framed.
    for (NodeId v = 0; v < 2; ++v) {
      const auto& self = eng.process_as<SyncArqHost>(v);
      const auto& peer = eng.process_as<SyncArqHost>(1 - v);
      EXPECT_EQ(self.delivered_up(0), self.next_expected_in(0))
          << "seed " << seed << " node " << v;
      EXPECT_LE(self.delivered_up(0), peer.data_sent(0))
          << "seed " << seed << " node " << v;
    }
  }
}

// Retransmit exhaustion against a crashed peer: the schedule is the
// async host's, expressed in pulses — send at 0, timers at 4, 12, 28,
// death at 60 — and the run quiesces instead of hanging.
TEST(SyncArq, ExhaustionAgainstCrashedPeerTerminatesWithSignal) {
  const Graph g = one_edge(1);
  FaultPlan plan;
  plan.crashes.push_back({1, 0.0});
  const FaultInjector inj(plan, g, 1);
  ArqConfig cfg;
  cfg.timeout_factor = 4.0;
  cfg.backoff = 2.0;
  cfg.max_retries = 3;
  SyncEngine eng(g, pulse_seq_factory(1, cfg));
  eng.set_faults(&inj);
  eng.run();  // must return: retransmission stops after max_retries
  ASSERT_TRUE(eng.idle());
  auto& sender = eng.process_as<SyncArqHost>(0);
  EXPECT_TRUE(sender.peer_dead(0));
  EXPECT_TRUE(sender.any_peer_dead());
  const std::vector<std::int64_t> expected = {4, 12, 28};
  EXPECT_EQ(sender.retransmit_pulses(0), expected);
  EXPECT_EQ(sender.retransmit_count(0), 3);
}

// A send on a link already declared peer-dead is suppressed (counted,
// never framed): the pulse-domain twin of
// Arq.SendsAfterPeerDeathAreSuppressed.
TEST(SyncArq, SendsAfterPeerDeathAreSuppressed) {
  class TwoPhaseSender final : public SyncProcess {
   public:
    void on_start(SyncContext& ctx) override {
      if (ctx.self() != 0) return;
      ctx.send(0, Message{100, {0}}, MsgClass::kAlgorithm);
      ctx.schedule_wakeup(500);
    }
    void on_message(SyncContext&, const Message&) override {}
    void on_wakeup(SyncContext& ctx) override {
      ctx.send(0, Message{100, {1}}, MsgClass::kAlgorithm);
    }
  };
  const Graph g = one_edge(1);
  FaultPlan plan;
  plan.crashes.push_back({1, 0.0});
  const FaultInjector inj(plan, g, 1);
  ArqConfig cfg;
  cfg.timeout_factor = 4.0;
  cfg.backoff = 2.0;
  cfg.max_retries = 2;  // dead long before the pulse-500 second send
  SyncEngine eng(
      g, sync_arq_factory(
             [](NodeId) { return std::make_unique<TwoPhaseSender>(); }, cfg));
  eng.set_faults(&inj);
  eng.run();
  auto& sender = eng.process_as<SyncArqHost>(0);
  EXPECT_TRUE(sender.peer_dead(0));
  EXPECT_EQ(sender.suppressed_sends(0), 1);
  EXPECT_EQ(sender.data_sent(0), 1);  // second send unframed
}

// Def. 4.2 preservation: on a weight-3 edge every wire transmission the
// layer originates (first copies, retransmissions, ACKs) lands on a
// pulse divisible by 3, so an in-synch-enforcing engine accepts the
// whole recovery — timeouts are rounded to multiples of w by design.
TEST(SyncArq, RetransmissionPreservesInSynchDiscipline) {
  const int kCount = 6;
  const Graph g = one_edge(3);
  FaultPlan plan;
  plan.drop_rate = 0.5;
  plan.salt = 0xFA17;
  const FaultInjector inj(plan, g, 3);
  SyncEngine eng(g, pulse_seq_factory(kCount), /*enforce_in_synch=*/true);
  eng.set_faults(&inj);
  eng.run();  // the engine throws on any out-of-synch send
  auto& sender = eng.process_as<SyncArqHost>(0);
  const auto& received =
      dynamic_cast<PulseSeqPeer&>(eng.process_as<SyncArqHost>(1).inner())
          .received;
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  EXPECT_GT(sender.retransmit_count(0), 0);
  for (const std::int64_t p : sender.retransmit_pulses(0)) {
    EXPECT_EQ(p % 3, 0) << "retransmission off the in-synch grid";
  }
}

// An ACK arriving at exactly the timeout pulse cancels the retransmit:
// messages are delivered before wakeups within a pulse, matching the
// asynchronous host's semantics.
TEST(SyncArq, AckAtTimeoutPulseCancelsRetransmission) {
  // w = 2: DATA at 0 arrives at 2, ACK at 2 arrives at 4. With
  // timeout_factor 2 the attempt-0 timer is due at exactly 4.
  const Graph g = one_edge(2);
  ArqConfig cfg;
  cfg.timeout_factor = 2.0;
  SyncEngine eng(g, pulse_seq_factory(1, cfg));
  eng.run();
  auto& sender = eng.process_as<SyncArqHost>(0);
  EXPECT_EQ(sender.retransmit_count(0), 0);
  EXPECT_EQ(
      dynamic_cast<PulseSeqPeer&>(eng.process_as<SyncArqHost>(1).inner())
          .received.size(),
      1u);
}

// Garbled frames are caught by the checksum, silently discarded (the
// corrupt counter ticks), and healed by retransmission: the inner
// protocol sees every payload intact and in order.
TEST(SyncArq, ChecksumMasksGarbledFrames) {
  const int kCount = 15;
  const Graph g = one_edge(1);
  FaultPlan plan;
  plan.garble_rate = 0.25;
  plan.salt = 0xFA17;
  const FaultInjector inj(plan, g, 5);
  SyncEngine eng(g, pulse_seq_factory(kCount));
  eng.set_faults(&inj);
  eng.run();
  auto& sender = eng.process_as<SyncArqHost>(0);
  auto& receiver = eng.process_as<SyncArqHost>(1);
  const auto& received =
      dynamic_cast<PulseSeqPeer&>(receiver.inner()).received;
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  }
  // The channel really garbled frames, and somebody discarded them.
  EXPECT_GT(receiver.corrupt_frames(0) + sender.corrupt_frames(0), 0);
  EXPECT_GT(sender.retransmit_count(0), 0);
}

// The ControlMeter agrees with the engine's own control ledger: every
// control-class wire transmission (ACKs, retransmits) is billed w(e),
// charged attempts included.
TEST(SyncArq, MeterMatchesControlLedger) {
  for (const double drop : {0.0, 0.3}) {
    const Graph g = one_edge(2);
    ArqConfig cfg;
    cfg.meter = std::make_shared<ControlMeter>();
    SyncEngine eng(g, pulse_seq_factory(10, cfg));
    FaultPlan plan;
    plan.drop_rate = drop;
    plan.salt = 0xFA17;
    const FaultInjector inj(plan, g, 2);
    if (drop > 0) eng.set_faults(&inj);
    const RunStats stats = eng.run();
    EXPECT_EQ(cfg.meter->billed, stats.control_cost) << "drop " << drop;
    EXPECT_GT(cfg.meter->billed, 0) << "drop " << drop;
  }
}

// The faulted pulse run is a pure function of (plan, seed): same seed
// reproduces the retransmit schedule and ledger exactly, a different
// seed moves them.
TEST(SyncArq, FaultedRunDeterministicPerSeed) {
  const Graph g = one_edge(2);
  FaultPlan plan;
  plan.drop_rate = 0.4;
  plan.dup_rate = 0.1;
  plan.salt = 0xFA17;
  const auto run_once = [&](std::uint64_t seed) {
    const FaultInjector inj(plan, g, seed);
    SyncEngine eng(g, pulse_seq_factory(12));
    eng.set_faults(&inj);
    const RunStats stats = eng.run();
    return std::make_pair(
        eng.process_as<SyncArqHost>(0).retransmit_pulses(0),
        stats.total_cost());
  };
  const auto a = run_once(5);
  const auto b = run_once(5);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.first.size(), 0u);
  const auto c = run_once(6);
  EXPECT_NE(a, c);
}

// Multi-edge golden: in-synch Bellman-Ford behind the pulse ARQ on a
// random graph under drop + dup + garble. Here several retransmit
// timers fall due at one pulse and share an engine wakeup with the
// inner protocol's own. The ledger, the per-link retransmit and
// corrupt-frame totals, and a digest of every retransmit schedule are
// pinned; the distances must match the fault-free run's.
TEST(SyncArq, GoldenLedgerOnGnp) {
  Rng rng(19);
  const Graph g = connected_gnp(18, 0.25, WeightSpec::uniform(1, 5), rng);
  std::vector<Weight> orig_w;
  for (EdgeId e = 0; e < g.edge_count(); ++e) orig_w.push_back(g.weight(e));
  const SyncEngine::ProcessFactory bf = [&orig_w](NodeId v) {
    return std::make_unique<InSynchBellmanFord>(v, 0, &orig_w);
  };

  SyncEngine clean(g, bf);
  clean.run();

  FaultPlan plan;
  plan.drop_rate = 0.1;
  plan.dup_rate = 0.05;
  plan.garble_rate = 0.05;
  plan.salt = 0xFA17;
  const FaultInjector inj(plan, g, 23);
  SyncEngine eng(g, sync_arq_factory(bf));
  eng.set_faults(&inj);
  const RunStats stats = eng.run();
  ASSERT_TRUE(eng.idle());

  std::int64_t retransmits = 0;
  std::int64_t corrupt = 0;
  std::uint64_t digest = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& host = eng.process_as<SyncArqHost>(v);
    EXPECT_FALSE(host.any_peer_dead()) << "node " << v;
    EXPECT_EQ(dynamic_cast<const InSynchBellmanFord&>(host.inner()).dist(),
              clean.process_as<InSynchBellmanFord>(v).dist())
        << "node " << v;
    for (const EdgeId e : g.incident(v)) {
      retransmits += host.retransmit_count(e);
      corrupt += host.corrupt_frames(e);
      digest = mix64(digest ^ static_cast<std::uint64_t>(e));
      for (const std::int64_t p : host.retransmit_pulses(e)) {
        digest = mix64(digest ^ static_cast<std::uint64_t>(p));
      }
    }
  }
  EXPECT_EQ(stats.algorithm_messages, 133);
  EXPECT_EQ(stats.control_messages, 222);
  EXPECT_EQ(stats.recovery_messages, 0);
  EXPECT_EQ(stats.algorithm_cost, 405);
  EXPECT_EQ(stats.control_cost, 664);
  EXPECT_EQ(stats.recovery_cost, 0);
  EXPECT_EQ(stats.completion_time, 996.0);
  EXPECT_EQ(stats.events, 489);
  EXPECT_EQ(retransmits, 47);
  EXPECT_EQ(corrupt, 14);
  EXPECT_EQ(digest, 11198079734254002604ull);
}

}  // namespace
}  // namespace csca
