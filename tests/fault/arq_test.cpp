// The reliable-link layer's contract: exactly-once FIFO delivery above
// faulty channels, a deterministic retransmit/backoff schedule, crash
// detection through retransmit exhaustion (never a hang), and survival
// of budgeted-run resume with retransmit timers pending.
#include "fault/reliable_link.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/invariants.h"
#include "conn/flood.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/require.h"

namespace csca {
namespace {

void expect_stats_identical(const RunStats& a, const RunStats& b,
                            const std::string& label) {
  EXPECT_EQ(a.algorithm_messages, b.algorithm_messages) << label;
  EXPECT_EQ(a.control_messages, b.control_messages) << label;
  EXPECT_EQ(a.algorithm_cost, b.algorithm_cost) << label;
  EXPECT_EQ(a.control_cost, b.control_cost) << label;
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.completion_time, b.completion_time) << label;
}

// Node 0 bursts `count` numbered messages over edge 0; node 1 records
// the payloads in delivery order.
class SeqPeer final : public Process {
 public:
  explicit SeqPeer(int count) : count_(count) {}
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (int i = 0; i < count_; ++i) {
      ctx.send(0, Message{100, {i}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    EXPECT_EQ(m.type, 100);
    EXPECT_EQ(m.edge, 0);
    EXPECT_EQ(m.from, ctx.self() == 1 ? 0 : 1);
    received.push_back(m.at(0));
  }
  std::vector<std::int64_t> received;

 private:
  int count_;
};

ProcessFactory seq_factory(int count) {
  return arq_factory(
      [count](NodeId) { return std::make_unique<SeqPeer>(count); });
}

Graph one_edge(Weight w) {
  Graph g(2);
  g.add_edge(0, 1, w);
  return g;
}

// Exactly-once, in-order delivery above the layer while the channel
// below drops, duplicates, and (through retransmission races) reorders.
TEST(Arq, ExactlyOnceFifoUnderDropAndDup) {
  const int kCount = 25;
  for (const std::uint64_t seed : {1u, 7u, 33u}) {
    FaultPlan plan;
    plan.drop_rate = 0.3;
    plan.dup_rate = 0.3;
    plan.salt = 0xFA17;
    const Graph g = one_edge(2);
    const FaultInjector inj(plan, g, seed);
    Network net(g, seq_factory(kCount), make_uniform_delay(0, 1), seed);
    net.set_faults(&inj);
    net.run();
    const auto& received =
        dynamic_cast<SeqPeer&>(arq_inner(net, 1)).received;
    ASSERT_EQ(received.size(), static_cast<std::size_t>(kCount))
        << "seed " << seed;
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(received[static_cast<std::size_t>(i)], i)
          << "seed " << seed;
    }
    // The channel really was faulty: the layer had to retransmit.
    EXPECT_GT(arq_host(net, 0).retransmit_count(0), 0) << "seed " << seed;
    EXPECT_FALSE(arq_host(net, 0).any_peer_dead());
  }
}

// A whole protocol (flooding) behind the layer on a faulty random
// graph: every node reached, and the invariant checker — including its
// independent ARQ receiver replay — stays clean.
TEST(Arq, FloodCompletesAndCheckerAcceptsUnderFaults) {
  Rng rng(23);
  const Graph g = connected_gnp(12, 0.3, WeightSpec::uniform(1, 9), rng);
  FaultPlan plan;
  plan.drop_rate = 0.15;
  plan.dup_rate = 0.1;
  plan.salt = 0xFA17;
  const FaultInjector inj(plan, g, 4);
  const auto factory = arq_factory(
      [](NodeId v) { return std::make_unique<FloodProcess>(v, 0); });
  Network net(g, factory, make_uniform_delay(0, 1), 4);
  net.set_faults(&inj);
  DefaultInvariantChecker checker;
  checker.set_faults(&inj);
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  checker.check_arq(net);
  EXPECT_TRUE(checker.ok()) << (checker.violations().empty()
                                    ? "suppressed"
                                    : checker.violations().front());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_TRUE(dynamic_cast<FloodProcess&>(arq_inner(net, v)).reached())
        << "node " << v;
  }
}

// Cost accounting: on a clean channel the first copy of each DATA frame
// bills the inner send's class, every ACK bills kControl — so the
// algorithm ledger equals the bare protocol's and the overhead is
// exactly one control message per data message.
TEST(Arq, CostSplitsAlgorithmVersusControlOverhead) {
  const int kCount = 10;
  const Graph g = one_edge(3);
  Network bare(
      g, [kCount](NodeId) -> std::unique_ptr<Process> {
        return std::make_unique<SeqPeer>(kCount);
      },
      make_exact_delay(), 1);
  const RunStats base = bare.run();

  Network net(g, seq_factory(kCount), make_exact_delay(), 1);
  const RunStats stats = net.run();
  EXPECT_EQ(stats.algorithm_messages, base.algorithm_messages);
  EXPECT_EQ(stats.algorithm_cost, base.algorithm_cost);
  EXPECT_EQ(stats.control_messages, kCount);  // one ACK per DATA
  EXPECT_EQ(stats.control_cost, base.algorithm_cost);
  EXPECT_EQ(arq_host(net, 0).retransmit_count(0), 0);
}

// Retransmit exhaustion against a crashed peer: the deterministic
// backoff schedule runs timeout_factor * w * backoff^k, the peer is
// declared dead after max_retries, and the run QUIESCES — the crash
// surfaces as a signal, not a hang.
TEST(Arq, ExhaustionAgainstCrashedPeerTerminatesWithSignal) {
  const Graph g = one_edge(1);
  FaultPlan plan;
  plan.crashes.push_back({1, 0.0});
  const FaultInjector inj(plan, g, 1);
  ArqConfig cfg;
  cfg.timeout_factor = 4.0;
  cfg.backoff = 2.0;
  cfg.max_retries = 3;
  const auto factory = arq_factory(
      [](NodeId) { return std::make_unique<SeqPeer>(1); }, cfg);
  Network net(g, factory, make_exact_delay(), 1);
  net.set_faults(&inj);
  net.run();  // must return: retransmission stops after max_retries
  ArqHost& sender = arq_host(net, 0);
  EXPECT_TRUE(sender.peer_dead(0));
  EXPECT_TRUE(sender.any_peer_dead());
  // Send at 0; timers fire at 4, 4+8=12, 12+16=28 (retransmits), and
  // the attempt-3 timer at 28+32=60 declares the peer dead.
  const std::vector<double> expected = {4.0, 12.0, 28.0};
  EXPECT_EQ(sender.retransmit_times(0), expected);
  EXPECT_EQ(sender.retransmit_count(0), 3);
}

// After the link is declared dead, later inner sends are suppressed
// (and counted) instead of growing an unacked queue forever.
TEST(Arq, SendsAfterPeerDeathAreSuppressed) {
  class TwoPhaseSender final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() != 0) return;
      ctx.send(0, Message{100, {0}}, MsgClass::kAlgorithm);
      ctx.schedule_self(500.0, Message{200});
    }
    void on_message(Context& ctx, const Message& m) override {
      if (m.type == 200) ctx.send(0, Message{100, {1}}, MsgClass::kAlgorithm);
    }
  };
  const Graph g = one_edge(1);
  FaultPlan plan;
  plan.crashes.push_back({1, 0.0});
  const FaultInjector inj(plan, g, 1);
  ArqConfig cfg;
  cfg.timeout_factor = 4.0;
  cfg.backoff = 2.0;
  cfg.max_retries = 2;  // dead long before the t=500 second send
  const auto factory = arq_factory(
      [](NodeId) { return std::make_unique<TwoPhaseSender>(); }, cfg);
  Network net(g, factory, make_exact_delay(), 1);
  net.set_faults(&inj);
  net.run();
  EXPECT_TRUE(arq_host(net, 0).peer_dead(0));
  EXPECT_EQ(arq_host(net, 0).suppressed_sends(0), 1);
  EXPECT_EQ(arq_host(net, 0).data_sent(0), 1);  // second send unframed
}

// The backoff schedule is a pure function of the run seed: re-running
// reproduces every retransmit time; a different seed moves them.
TEST(Arq, RetransmitScheduleDeterministicPerSeed) {
  const int kCount = 20;
  const Graph g = one_edge(2);
  FaultPlan plan;
  plan.drop_rate = 0.4;
  plan.salt = 0xFA17;
  const auto run_once = [&](std::uint64_t seed) {
    const FaultInjector inj(plan, g, seed);
    Network net(g, seq_factory(kCount), make_uniform_delay(0, 1), seed);
    net.set_faults(&inj);
    net.run();
    return std::make_pair(arq_host(net, 0).retransmit_times(0),
                          arq_host(net, 1).retransmit_times(0));
  };
  const auto a = run_once(5);
  const auto b = run_once(5);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.first.size() + a.second.size(), 0u);
  // Timer order: distinct seqs sent together retransmit together, so
  // the recorded schedule is non-decreasing (never out of order).
  for (std::size_t i = 1; i < a.first.size(); ++i) {
    EXPECT_LE(a.first[i - 1], a.first[i]);
  }
  const auto c = run_once(6);
  EXPECT_NE(a, c);
}

// Inner self-schedules round-trip through the kArqSelf framing with
// type, payload and self-delivery metadata intact.
TEST(Arq, InnerSelfSchedulesSurviveFraming) {
  class SelfScheduler final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) {
        ctx.schedule_self(2.5, Message{42, {7, 8}});
      }
    }
    void on_message(Context& ctx, const Message& m) override {
      EXPECT_EQ(m.type, 42);
      EXPECT_EQ(m.edge, kNoEdge);
      EXPECT_EQ(m.from, ctx.self());
      EXPECT_EQ(m.at(0), 7);
      EXPECT_EQ(m.at(1), 8);
      EXPECT_DOUBLE_EQ(ctx.now(), 2.5);
      ++wakeups;
    }
    int wakeups = 0;
  };
  const Graph g = one_edge(1);
  const auto factory =
      arq_factory([](NodeId) { return std::make_unique<SelfScheduler>(); });
  Network net(g, factory, make_exact_delay(), 1);
  net.run();
  EXPECT_EQ(dynamic_cast<SelfScheduler&>(arq_inner(net, 0)).wakeups, 1);
}

// The PR-1 budgeted-run audit: a retransmit timer pending at budget
// exhaustion must survive resume. Slicing a faulted ARQ run into small
// max_time budgets must reproduce the one-shot run bit for bit —
// ledger, retransmit schedule, and protocol output.
TEST(Arq, BudgetedResumePreservesPendingRetransmitTimers) {
  const int kCount = 25;
  const Graph g = one_edge(2);
  FaultPlan plan;
  plan.drop_rate = 0.4;
  plan.dup_rate = 0.2;
  plan.salt = 0xFA17;

  const FaultInjector inj1(plan, g, 11);
  Network one_shot(g, seq_factory(kCount), make_uniform_delay(0, 1), 11);
  one_shot.set_faults(&inj1);
  const RunStats full = one_shot.run();

  const FaultInjector inj2(plan, g, 11);
  Network sliced(g, seq_factory(kCount), make_uniform_delay(0, 1), 11);
  sliced.set_faults(&inj2);
  // Slices far smaller than the first retransmit timeout (16): every
  // pending timer crosses many budget boundaries.
  double budget = 0.75;
  for (int guard = 0; !sliced.idle() || guard == 0; ++guard) {
    ASSERT_LT(guard, 10000) << "sliced run failed to quiesce";
    sliced.run(budget);
    budget += 0.75;
  }
  expect_stats_identical(full, sliced.stats(), "sliced");
  EXPECT_EQ(arq_host(one_shot, 0).retransmit_times(0),
            arq_host(sliced, 0).retransmit_times(0));
  EXPECT_EQ(arq_host(one_shot, 1).retransmit_times(0),
            arq_host(sliced, 1).retransmit_times(0));
  const auto& a = dynamic_cast<SeqPeer&>(arq_inner(one_shot, 1)).received;
  const auto& b = dynamic_cast<SeqPeer&>(arq_inner(sliced, 1)).received;
  EXPECT_EQ(a, b);
  ASSERT_EQ(b.size(), static_cast<std::size_t>(kCount));
}

// Budget-resume under an *active link outage*: retransmit timers armed
// while the link is down — and the outage windows themselves — must
// survive arbitrarily many budget boundaries. Slicing a link_flap +
// drop run must reproduce the one-shot run bit for bit: ledger, every
// host's retransmit schedule, and the protocol outcome.
TEST(Arq, BudgetedResumeUnderLinkFlapMatchesOneShot) {
  Rng rng(21);
  const Graph g = connected_gnp(10, 0.3, WeightSpec::uniform(1, 6), rng);
  FaultPlan plan = make_builtin_fault_plan("link_flap", g);
  ASSERT_FALSE(plan.outages.empty());
  plan.drop_rate = 0.15;  // losses on the up links force timers too

  const auto factory = arq_factory(
      [](NodeId v) { return std::make_unique<FloodProcess>(v, 0); });

  const FaultInjector inj1(plan, g, 13);
  Network one_shot(g, factory, make_uniform_delay(0, 1), 13);
  one_shot.set_faults(&inj1);
  const RunStats full = one_shot.run();

  std::int64_t total_retransmits = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (EdgeId e : g.incident(v)) {
      total_retransmits += arq_host(one_shot, v).retransmit_count(e);
    }
  }
  EXPECT_GT(total_retransmits, 0) << "plan should force retransmissions";

  const FaultInjector inj2(plan, g, 13);
  Network sliced(g, factory, make_uniform_delay(0, 1), 13);
  sliced.set_faults(&inj2);
  // Slices far smaller than any retransmit timeout or outage window:
  // every pending timer and every flap crosses many budget boundaries.
  double budget = 0.9;
  for (int guard = 0; !sliced.idle() || guard == 0; ++guard) {
    ASSERT_LT(guard, 10000) << "sliced run failed to quiesce";
    sliced.run(budget);
    budget += 0.9;
  }
  expect_stats_identical(full, sliced.stats(), "link-flap sliced");
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (EdgeId e : g.incident(v)) {
      EXPECT_EQ(arq_host(one_shot, v).retransmit_times(e),
                arq_host(sliced, v).retransmit_times(e))
          << "node " << v << " edge " << e;
    }
    EXPECT_EQ(
        dynamic_cast<FloodProcess&>(arq_inner(one_shot, v)).reached(),
        dynamic_cast<FloodProcess&>(arq_inner(sliced, v)).reached())
        << "node " << v;
  }
}

// ------------------------------------------------- host checks
// Direct drive: one ArqHost fed hand-built deliveries through a fake
// engine, so each rejected input is pinned by exception type and exact
// text.

class FakeEngine final : public EngineBackend {
 public:
  explicit FakeEngine(const Graph& g) : g_(&g) {}
  Context context(NodeId v) { return make_context(v); }

 private:
  double engine_now() const override { return 0.0; }
  const Graph& engine_graph() const override { return *g_; }
  void engine_send(NodeId, EdgeId, Message, MsgClass) override {}
  void engine_schedule_self(NodeId, double, Message) override {}
  void engine_finish(NodeId) override {}

  const Graph* g_;
};

// Keeps the context it was started with, so a test can call into the
// host after the handler returned.
class ContextKeeper final : public Process {
 public:
  void on_start(Context& ctx) override { kept = ctx; }
  void on_message(Context&, const Message&) override {}
  std::optional<Context> kept;
};

void expect_precondition(const std::function<void()>& call,
                         const std::string& text) {
  try {
    call();
    ADD_FAILURE() << "expected PreconditionError: " << text;
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("precondition violated: " + text + " [", 0), 0u)
        << "actual message: " << what;
  }
}

// Path 0 - 1 - 2: edge 0 is incident to node 0, edge 1 is not.
Graph path3() {
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  return g;
}

struct DrivenHost {
  DrivenHost() : g(path3()), engine(g) {
    auto inner = std::make_unique<ContextKeeper>();
    keeper = inner.get();
    host = std::make_unique<ArqHost>(0, std::move(inner), ArqConfig{});
    Context ctx = engine.context(0);
    host->on_start(ctx);
  }
  void deliver(Message m) {
    Context ctx = engine.context(0);
    host->on_message(ctx, m);
  }

  Graph g;
  FakeEngine engine;
  ContextKeeper* keeper = nullptr;
  std::unique_ptr<ArqHost> host;
};

Message on_edge(Message m, EdgeId e, NodeId from) {
  m.edge = e;
  m.from = from;
  return m;
}

TEST(ArqHostChecks, ForeignMessageTypeOnAnEdge) {
  DrivenHost d;
  expect_precondition([&] { d.deliver(on_edge(Message{100, {0}}, 0, 1)); },
                      "ARQ host received a foreign message type");
}

TEST(ArqHostChecks, UnframedSelfDelivery) {
  DrivenHost d;
  expect_precondition([&] { d.deliver(on_edge(Message{100}, kNoEdge, 0)); },
                      "ArqHost received an unframed self-delivery");
}

TEST(ArqHostChecks, TimerWithFewerThanThreeWords) {
  DrivenHost d;
  expect_precondition(
      [&] { d.deliver(on_edge(Message{kArqTimer, {0, 0}}, kNoEdge, 0)); },
      "message payload index out of range");
}

TEST(ArqHostChecks, EmptyInnerSelfDelivery) {
  DrivenHost d;
  expect_precondition(
      [&] { d.deliver(on_edge(Message{kArqSelf}, kNoEdge, 0)); },
      "message payload index out of range");
}

TEST(ArqHostChecks, InnerSendAndNowOutsideAHandler) {
  DrivenHost d;
  ASSERT_TRUE(d.keeper->kept.has_value());
  Context& stale = *d.keeper->kept;
  expect_precondition(
      [&] { stale.send(0, Message{100}, MsgClass::kAlgorithm); },
      "ArqHost inner send outside a handler");
  expect_precondition([&] { (void)stale.now(); },
                      "ArqHost inner call outside a handler");
}

TEST(ArqHostChecks, NonIncidentEdge) {
  DrivenHost d;
  expect_precondition(
      [&] { d.deliver(on_edge(arq_make_ack(0), 1, 2)); },
      "edge is not incident to this ARQ host");
  expect_precondition([&] { (void)d.host->data_sent(1); },
                      "edge is not incident to this ARQ host");
}

// ------------------------------------------------------- footprint

std::size_t arq_bytes(ProcessHost& net) {
  std::size_t bytes = 0;
  for (NodeId v = 0; v < net.graph().node_count(); ++v) {
    bytes += arq_host(net, v).memory_bytes();
  }
  return bytes;
}

ProcessFactory arq_flood() {
  return arq_factory(
      [](NodeId v) { return std::make_unique<FloodProcess>(v, 0); });
}

// A link whose channel never misbehaved needs no retransmission log and
// no out-of-order buffer, so it never allocates its cold block.
TEST(ArqFootprint, FaultFreeFloodAllocatesNoColdBlock) {
  Rng rng(9);
  const Graph g = grid_graph(20, 20, WeightSpec::uniform(1, 9), rng);
  Network net(g, arq_flood(), make_uniform_delay(0.1, 0.9), 9);
  net.run();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const ArqHost& host = arq_host(net, v);
    EXPECT_EQ(host.cold_blocks(), 0u) << "node " << v;
    for (const EdgeId e : g.incident(v)) {
      EXPECT_TRUE(host.retransmit_times(e).empty())
          << "node " << v << " edge " << e;
    }
  }
}

// Under the faulty_arq benchmark's fault mix the links stay small: the
// 80 B hot record, the unacked frames' 64 B slots, and a cold block
// only on the links that retransmitted or buffered. Measured at 131.1 B
// per link (587 of 14,160 links cold) on this input. The bound leaves
// room for allocator growth policy, not for a bigger record: the old
// 152 B record, or a 128 B unacked slot, each cost about 65 B more.
TEST(ArqFootprint, FaultyFloodStaysWithinBytesPerLinkBound) {
  Rng rng(9);
  const Graph g = grid_graph(60, 60, WeightSpec::uniform(1, 16), rng);
  FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.dup_rate = 0.01;
  plan.garble_rate = 0.01;
  plan.salt = 0xFA17;
  const FaultInjector inj(plan, g, 9);
  Network net(g, arq_flood(), make_uniform_delay(0.1, 0.9), 9);
  net.set_keyed_delays(true);
  net.set_faults(&inj);
  net.run();
  std::size_t cold = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    cold += arq_host(net, v).cold_blocks();
  }
  EXPECT_GT(cold, 0u) << "the plan should force retransmissions";
  const double links = 2.0 * g.edge_count();
  EXPECT_LE(static_cast<double>(arq_bytes(net)) / links, 160.0);
}

}  // namespace
}  // namespace csca
