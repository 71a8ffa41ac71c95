#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "graph/generators.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"

namespace csca {
namespace {

// Runs call and expects a PreconditionError whose message is text
// followed by the call-site location: the exact text require() gives,
// on every engine, whichever way the check is written.
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

// Echoes every received message back once, tagging type + 1.
class Echo final : public Process {
 public:
  explicit Echo(bool initiator) : initiator_(initiator) {}

  void on_start(Context& ctx) override {
    if (!initiator_) return;
    for (EdgeId e : ctx.incident()) ctx.send(e, Message{0}, MsgClass::kAlgorithm);
  }

  void on_message(Context& ctx, const Message& m) override {
    last_type = m.type;
    last_from = m.from;
    receive_time = ctx.now();
    if (m.type == 0) ctx.send(m.edge, Message{1}, MsgClass::kAlgorithm);
    ctx.finish();
  }

  bool initiator_;
  int last_type = -1;
  NodeId last_from = kNoNode;
  double receive_time = -1;
};

Network::ProcessFactory echo_factory(NodeId initiator) {
  return [initiator](NodeId v) {
    return std::make_unique<Echo>(v == initiator);
  };
}

TEST(Network, PingPongCostAndTimeWithExactDelay) {
  Graph g(2);
  g.add_edge(0, 1, 7);
  Network net(g, echo_factory(0), make_exact_delay());
  const auto stats = net.run();
  // One ping + one pong, each costing w = 7.
  EXPECT_EQ(stats.algorithm_messages, 2);
  EXPECT_EQ(stats.algorithm_cost, 14);
  EXPECT_EQ(stats.control_messages, 0);
  EXPECT_DOUBLE_EQ(stats.completion_time, 14.0);
  EXPECT_EQ(net.process_as<Echo>(1).last_type, 0);
  EXPECT_EQ(net.process_as<Echo>(0).last_type, 1);
  EXPECT_EQ(net.process_as<Echo>(0).last_from, 1);
}

TEST(Network, UniformDelayWithinModelBounds) {
  Graph g(2);
  g.add_edge(0, 1, 100);
  Network net(g, echo_factory(0), make_uniform_delay(0.2, 0.9), 42);
  const auto stats = net.run();
  // Two messages, each delayed in [20, 90].
  EXPECT_GE(stats.completion_time, 40.0);
  EXPECT_LE(stats.completion_time, 180.0);
}

TEST(Network, DelayModelViolationRejected) {
  // Draws one unit above w(e) through every entry point.
  class BadDelay final : public DelayModel {
   public:
    double delay(Weight w, Rng&) override {
      return static_cast<double>(w) + 1.0;
    }
    double delay_keyed(EdgeId, Weight w, std::uint64_t) const override {
      return static_cast<double>(w) + 1.0;
    }
  };
  // Draws inside [0, w(e)] but below the model's declared lookahead
  // floor: every engine rejects them, sequential ones included.
  class BelowFloor final : public DelayModel {
   public:
    double delay(Weight w, Rng&) override {
      return 0.25 * static_cast<double>(w);
    }
    double delay_keyed(EdgeId, Weight w, std::uint64_t) const override {
      return 0.25 * static_cast<double>(w);
    }
    double min_delay(EdgeId, Weight w) const override {
      return 0.5 * static_cast<double>(w);
    }
  };
  Graph g(2);
  g.add_edge(0, 1, 3);
  const std::string text =
      "delay model drew outside [min_delay(e), w(e)] or below 0";
  const auto on_every_async_engine = [&g, &text](auto make_model) {
    expect_precondition(
        [&] {
          Network plain(g, echo_factory(0), make_model());
          plain.run();
        },
        text);
    expect_precondition(
        [&] {
          Network keyed(g, echo_factory(0), make_model());
          keyed.set_keyed_delays(true);
          keyed.run();
        },
        text);
    expect_precondition(
        [&] {
          ShardEngine shard(g, echo_factory(0), make_model(), 1,
                            ShardEngine::Options{2, 0, {}});
          shard.run();
        },
        text);
    expect_precondition(
        [&] {
          TimeWarpEngine tw(g, echo_factory(0), make_model(), 1,
                            TimeWarpEngine::Options{2, 0, 256, {}});
          tw.run();
        },
        text);
  };
  on_every_async_engine([] { return std::make_unique<BadDelay>(); });
  on_every_async_engine([] { return std::make_unique<BelowFloor>(); });
}

// Sends one message on a fixed foreign edge to test the incident check.
class Trespasser final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) ctx.send(1, Message{0}, MsgClass::kAlgorithm);  // edge 1 = (1,2)
  }
  void on_message(Context&, const Message&) override {}
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<Trespasser>(*this);
  }
  void restore_state(const Process&) override {}
};

TEST(Network, SendingOnForeignEdgeRejected) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  const ProcessFactory trespassers = [](NodeId) {
    return std::make_unique<Trespasser>();
  };
  const std::string text = "process may only send on its own incident edges";
  expect_precondition(
      [&] {
        Network net(g, trespassers, make_exact_delay());
        net.run();
      },
      text);
  expect_precondition(
      [&] {
        ShardEngine shard(g, trespassers, make_exact_delay(), 1,
                          ShardEngine::Options{2, 0, {}});
        shard.run();
      },
      text);
  expect_precondition(
      [&] {
        TimeWarpEngine tw(g, trespassers, make_exact_delay(), 1,
                          TimeWarpEngine::Options{2, 0, 256, {}});
        tw.run();
      },
      text);
}

TEST(Message, AtPastThePayloadRejected) {
  const Message m{0, {7, 8}};
  EXPECT_EQ(m.at(1), 8);
  expect_precondition([&] { (void)m.at(2); },
                      "message payload index out of range");
  expect_precondition([] { (void)Message{0}.at(0); },
                      "message payload index out of range");
}

// Sends a burst of numbered messages; receiver records arrival order.
class FifoSender final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (int i = 0; i < 50; ++i) {
      ctx.send(ctx.incident()[0], Message{i}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context&, const Message& m) override {
    received.push_back(m.type);
  }
  std::vector<int> received;
};

TEST(Network, ChannelsAreFifoUnderRandomDelays) {
  Graph g(2);
  g.add_edge(0, 1, 1000);
  Network net(
      g, [](NodeId) { return std::make_unique<FifoSender>(); },
      make_uniform_delay(0.0, 1.0), 7);
  net.run();
  const auto& received = net.process_as<FifoSender>(1).received;
  ASSERT_EQ(received.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
}

// Flood-and-reply: first receipt forwards to all other edges and
// replies; used for per-edge traffic accounting tests.
class FloodLike final : public Process {
 public:
  explicit FloodLike(NodeId self) : is_initiator_(self == 0) {}
  void on_start(Context& ctx) override {
    if (!is_initiator_) return;
    reached_ = true;
    for (EdgeId e : ctx.incident()) ctx.send(e, Message{0}, MsgClass::kAlgorithm);
  }
  void on_message(Context& ctx, const Message& m) override {
    if (m.type == 1) return;  // a reply
    if (!reached_) {
      reached_ = true;
      for (EdgeId e : ctx.incident()) {
        if (e != m.edge) ctx.send(e, Message{0}, MsgClass::kAlgorithm);
      }
    }
    ctx.send(m.edge, Message{1}, MsgClass::kAlgorithm);
  }

 private:
  bool is_initiator_;
  bool reached_ = false;
};

// Relays a token along the path 0 -> 1 -> ... -> n-1.
class Relay final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) forward(ctx);
  }
  void on_message(Context& ctx, const Message&) override {
    forward(ctx);
    ctx.finish();
  }

 private:
  void forward(Context& ctx) {
    for (EdgeId e : ctx.incident()) {
      if (ctx.neighbor(e) == ctx.self() + 1) ctx.send(e, Message{0}, MsgClass::kAlgorithm);
    }
    ctx.finish();
  }
};

TEST(Network, RelayAccumulatesWeightedTime) {
  Rng rng(1);
  Graph g = path_graph(5, WeightSpec::constant(4), rng);
  Network net(
      g, [](NodeId) { return std::make_unique<Relay>(); },
      make_exact_delay());
  const auto stats = net.run();
  EXPECT_EQ(stats.algorithm_messages, 4);
  EXPECT_EQ(stats.algorithm_cost, 16);
  EXPECT_DOUBLE_EQ(stats.completion_time, 16.0);
  EXPECT_TRUE(net.all_finished());
  EXPECT_DOUBLE_EQ(net.last_finish_time(), 16.0);
  EXPECT_DOUBLE_EQ(net.finish_time(2), 8.0);
}

TEST(Network, ControlTrafficAccountedSeparately) {
  class ControlSender final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() != 0) return;
      ctx.send(ctx.incident()[0], Message{0}, MsgClass::kAlgorithm);
      ctx.send(ctx.incident()[0], Message{1}, MsgClass::kControl);
      ctx.send(ctx.incident()[0], Message{2}, MsgClass::kControl);
    }
    void on_message(Context&, const Message&) override {}
  };
  Graph g(2);
  g.add_edge(0, 1, 5);
  Network net(
      g, [](NodeId) { return std::make_unique<ControlSender>(); },
      make_exact_delay());
  const auto stats = net.run();
  EXPECT_EQ(stats.algorithm_messages, 1);
  EXPECT_EQ(stats.algorithm_cost, 5);
  EXPECT_EQ(stats.control_messages, 2);
  EXPECT_EQ(stats.control_cost, 10);
  EXPECT_EQ(stats.total_messages(), 3);
  EXPECT_EQ(stats.total_cost(), 15);
}

TEST(Network, MaxTimeCutsRunShort) {
  Rng rng(1);
  Graph g = path_graph(10, WeightSpec::constant(10), rng);
  Network net(
      g, [](NodeId) { return std::make_unique<Relay>(); },
      make_exact_delay());
  net.run(35.0);
  // Token reached node 3 (time 30) but not node 4 (time 40).
  EXPECT_TRUE(net.finished(3));
  EXPECT_FALSE(net.finished(4));
  EXPECT_FALSE(net.all_finished());
  EXPECT_THROW(net.last_finish_time(), PreconditionError);
}

TEST(Network, RunResumesAfterMaxTime) {
  Rng rng(1);
  Graph g = path_graph(6, WeightSpec::constant(10), rng);
  Network net(
      g, [](NodeId) { return std::make_unique<Relay>(); },
      make_exact_delay());
  net.run(25.0);
  EXPECT_FALSE(net.all_finished());
  net.run();  // resume to quiescence
  EXPECT_TRUE(net.all_finished());
  EXPECT_DOUBLE_EQ(net.last_finish_time(), 50.0);
}

TEST(Network, StepDeliversOneEventAtATime) {
  Rng rng(1);
  Graph g = path_graph(4, WeightSpec::constant(2), rng);
  Network net(
      g, [](NodeId) { return std::make_unique<Relay>(); },
      make_exact_delay());
  int steps = 0;
  while (net.step()) ++steps;
  EXPECT_EQ(steps, 3);  // three relays delivered
  EXPECT_TRUE(net.idle());
  EXPECT_FALSE(net.step());
  EXPECT_EQ(net.stats().algorithm_messages, 3);
}

TEST(Network, ProcessAsRejectsWrongType) {
  Graph g(2);
  g.add_edge(0, 1, 1);
  Network net(g, echo_factory(0), make_exact_delay());
  EXPECT_NO_THROW(net.process_as<Echo>(0));
  EXPECT_THROW(net.process_as<FifoSender>(0), PreconditionError);
}

// Uses schedule_self to defer work out of the current handler.
class SelfScheduler final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    ctx.schedule_self(5.0, Message{1});
    ctx.schedule_self(2.0, Message{2});
    ctx.schedule_self(2.0, Message{3});  // same time: FIFO by seq
  }
  void on_message(Context& ctx, const Message& m) override {
    order.push_back(m.type);
    times.push_back(ctx.now());
    if (m.type == 1) ctx.schedule_self(0.0, Message{4});
  }
  std::vector<int> order;
  std::vector<double> times;
};

TEST(Network, ScheduleSelfOrdersByTimeThenSequence) {
  Graph g(1);
  Network net(
      g, [](NodeId) { return std::make_unique<SelfScheduler>(); },
      make_exact_delay());
  const auto stats = net.run();
  const auto& p = net.process_as<SelfScheduler>(0);
  EXPECT_EQ(p.order, (std::vector<int>{2, 3, 1, 4}));
  EXPECT_DOUBLE_EQ(p.times[0], 2.0);
  EXPECT_DOUBLE_EQ(p.times[2], 5.0);
  EXPECT_DOUBLE_EQ(p.times[3], 5.0);  // zero-delay fires at same time
  // Self-deliveries are free: no ledger entries.
  EXPECT_EQ(stats.total_messages(), 0);
  EXPECT_EQ(stats.total_cost(), 0);
}

TEST(Network, ScheduleSelfRejectsNegativeDelay) {
  class Bad final : public Process {
   public:
    void on_start(Context& ctx) override {
      ctx.schedule_self(-1.0, Message{0});
    }
    void on_message(Context&, const Message&) override {}
  };
  Graph g(1);
  Network net(
      g, [](NodeId) { return std::make_unique<Bad>(); },
      make_exact_delay());
  expect_precondition([&] { net.run(); },
                      "self-delivery delay must be non-negative");
}

TEST(Network, EdgeMessageCountsTrackPerLinkTraffic) {
  Rng rng(1);
  Graph g = path_graph(3, WeightSpec::constant(2), rng);
  Network net(
      g, [](NodeId v) { return std::make_unique<FloodLike>(v); },
      make_exact_delay());
  net.run();
  // Node 0 starts: edge 0 carries 0->1 and the 1->0 response; edge 1
  // carries 1->2 and 2->1.
  EXPECT_EQ(net.edge_message_count(0), 2);
  EXPECT_EQ(net.edge_message_count(1), 2);
  EXPECT_EQ(net.max_edge_message_count(), 2);
  EXPECT_THROW(net.edge_message_count(7), PreconditionError);
}

// TTL broadcast storm with mixed ledger classes: every delivery with
// ttl > 0 re-broadcasts on all incident edges, alternating the cost
// class by ttl parity. Deterministic given (graph, delay model, seed);
// used for the golden-ledger and resume-slicing tests.
class Storm final : public Process {
 public:
  explicit Storm(std::int64_t ttl, std::vector<std::int64_t>* log = nullptr)
      : ttl_(ttl), log_(log) {}
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_, 0, 0, 0}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    if (log_ != nullptr) {
      log_->push_back(ctx.self());
      log_->push_back(m.from);
      log_->push_back(m.at(0));
    }
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    const MsgClass cls =
        (ttl % 2 != 0) ? MsgClass::kAlgorithm : MsgClass::kControl;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, m.at(1) + 1, ctx.self(), m.at(3)}},
               cls);
    }
  }

 private:
  std::int64_t ttl_;
  std::vector<std::int64_t>* log_;
};

TEST(Network, GoldenLedgerUnchangedAcrossEngineSwap) {
  // Golden values captured from the seed std::priority_queue engine
  // (commit 9d48ee5). The indexed-heap engine orders equal-time events
  // by the same (arrival, seq) total order, so every ledger field must
  // stay bit-identical for a fixed seed.
  struct Golden {
    std::uint64_t seed;
    double completion;
  };
  const Golden golden[] = {{1, 24.219002035024655},
                           {42, 27.638169197934825},
                           {99, 31.296914566072871}};
  for (const Golden& gl : golden) {
    Rng rng(3);
    Graph g = connected_gnp(24, 0.2, WeightSpec::uniform(1, 9), rng);
    Network net(
        g, [](NodeId) { return std::make_unique<Storm>(3); },
        make_uniform_delay(0.0, 1.0), gl.seed);
    const RunStats s = net.run();
    EXPECT_EQ(s.algorithm_messages, 2126);
    EXPECT_EQ(s.algorithm_cost, 10248);
    EXPECT_EQ(s.control_messages, 304);
    EXPECT_EQ(s.control_cost, 1439);
    EXPECT_EQ(s.events, 2430);
    EXPECT_DOUBLE_EQ(s.completion_time, gl.completion);
    EXPECT_EQ(net.max_edge_message_count(), 42);
  }
}

// Sends numbered bursts over a weight-1 edge; with UniformDelay(0, 1)
// the sampled delays routinely collide at (near-)zero, so deliveries
// are only kept in order by the per-channel FIFO clamp + seq tie-break.
TEST(Network, FifoPreservedUnderZeroDelayTies) {
  class BurstSender final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() != 0) return;
      for (int i = 0; i < 100; ++i) ctx.send(ctx.incident()[0], Message{i}, MsgClass::kAlgorithm);
    }
    void on_message(Context& ctx, const Message& m) override {
      received.push_back(m.type);
      // Echo bursts back so ties also occur on the reverse channel.
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
  Network net(
      g, [](NodeId) { return std::make_unique<BurstSender>(); },
      make_uniform_delay(0.0, 1.0), 2026);
  net.run();
  const auto& fwd = net.process_as<BurstSender>(1).received;
  ASSERT_EQ(fwd.size(), 100u);
  EXPECT_TRUE(std::is_sorted(fwd.begin(), fwd.end()));
  const auto& back = net.process_as<BurstSender>(0).received;
  ASSERT_EQ(back.size(), 50u);
  EXPECT_TRUE(std::is_sorted(back.begin(), back.end()));
}

TEST(Network, BudgetSlicesDeliverSameSequenceAsFullRun) {
  // Interleaving run(max_time) budget slices must lose and reorder
  // nothing: the concatenated delivery log of the sliced execution is
  // exactly the log of the unbudgeted one.
  Rng rng(3);
  Graph g = connected_gnp(16, 0.25, WeightSpec::uniform(1, 9), rng);
  const auto run_sliced = [&](const std::vector<double>& cuts) {
    std::vector<std::int64_t> log;
    Network net(
        g, [&log](NodeId) { return std::make_unique<Storm>(2, &log); },
        make_uniform_delay(0.0, 1.0), 7);
    for (double cut : cuts) net.run(cut);
    net.run();
    EXPECT_TRUE(net.idle());
    return std::make_pair(log, net.stats());
  };
  const auto [full_log, full_stats] = run_sliced({});
  const auto [sliced_log, sliced_stats] = run_sliced({3.0, 7.5, 11.0});
  EXPECT_EQ(sliced_log, full_log);
  EXPECT_EQ(sliced_stats.events, full_stats.events);
  EXPECT_EQ(sliced_stats.algorithm_messages, full_stats.algorithm_messages);
  EXPECT_EQ(sliced_stats.control_messages, full_stats.control_messages);
  EXPECT_DOUBLE_EQ(sliced_stats.completion_time,
                   full_stats.completion_time);
}

TEST(Network, NowAdvancesToBudgetBoundaryWhenCutShort) {
  Rng rng(1);
  Graph g = path_graph(10, WeightSpec::constant(10), rng);
  Network net(
      g, [](NodeId) { return std::make_unique<Relay>(); },
      make_exact_delay());
  net.run(35.0);
  // Last delivery was at t=30, but the slice consumed [0, 35].
  EXPECT_DOUBLE_EQ(net.now(), 35.0);
  // A shorter budget than the clock delivers nothing and leaves time be.
  net.run(5.0);
  EXPECT_DOUBLE_EQ(net.now(), 35.0);
  net.run();
  // After quiescence the clock is the last delivery, not a budget mark.
  EXPECT_DOUBLE_EQ(net.now(), 90.0);
  EXPECT_TRUE(net.all_finished());
}

TEST(Network, CompletionTimeIgnoresTrailingSelfDelivery) {
  // A free self-delivery after the last real message must not inflate
  // the paper's time measure (completion_time), though the simulated
  // clock itself still advances to it.
  class DeferAfterEcho final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) ctx.send(ctx.incident()[0], Message{0}, MsgClass::kAlgorithm);
    }
    void on_message(Context& ctx, const Message& m) override {
      if (m.edge != kNoEdge) ctx.schedule_self(8.0, Message{1});
    }
  };
  Graph g(2);
  g.add_edge(0, 1, 2);
  Network net(
      g, [](NodeId) { return std::make_unique<DeferAfterEcho>(); },
      make_exact_delay());
  const auto stats = net.run();
  EXPECT_EQ(stats.events, 2);  // the edge delivery + the self delivery
  EXPECT_DOUBLE_EQ(stats.completion_time, 2.0);
  EXPECT_DOUBLE_EQ(net.now(), 10.0);
}

TEST(Network, PerClassEdgeCountersSplitTraffic) {
  class ClassedSender final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() != 0) return;
      ctx.send(ctx.incident()[0], Message{0}, MsgClass::kAlgorithm);
      ctx.send(ctx.incident()[0], Message{1}, MsgClass::kControl);
      ctx.send(ctx.incident()[0], Message{2}, MsgClass::kControl);
    }
    void on_message(Context& ctx, const Message& m) override {
      // Replies travel as algorithm traffic on the reverse channel.
      if (m.type == 0) ctx.send(m.edge, Message{3}, MsgClass::kAlgorithm);
    }
  };
  Graph g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 5);
  Network net(
      g, [](NodeId) { return std::make_unique<ClassedSender>(); },
      make_exact_delay());
  net.run();
  EXPECT_EQ(net.edge_message_count(0, MsgClass::kAlgorithm), 2);
  EXPECT_EQ(net.edge_message_count(0, MsgClass::kControl), 2);
  EXPECT_EQ(net.edge_message_count(0), 4);
  EXPECT_EQ(net.edge_message_count(1, MsgClass::kAlgorithm), 0);
  EXPECT_EQ(net.edge_message_count(1, MsgClass::kControl), 0);
  EXPECT_EQ(net.max_edge_message_count(MsgClass::kAlgorithm), 2);
  EXPECT_EQ(net.max_edge_message_count(MsgClass::kControl), 2);
  EXPECT_EQ(net.max_edge_message_count(), 4);
  EXPECT_THROW(
      static_cast<void>(net.edge_message_count(9, MsgClass::kControl)),
      PreconditionError);
}

// A class's per-edge ledger is allocated on its first billing; until
// then every reader sees zeros.
TEST(Network, UnsentClassReadsZeroAndControlOnlySendBillsOnlyControl) {
  class ControlOnly final : public Process {
   public:
    void on_start(Context& ctx) override {
      if (ctx.self() == 0) {
        ctx.send(ctx.incident()[0], Message{0}, MsgClass::kControl);
      }
    }
    void on_message(Context&, const Message&) override {}
  };
  Graph g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 5);
  Network net(
      g, [](NodeId) { return std::make_unique<ControlOnly>(); },
      make_exact_delay());
  const std::size_t before = net.memory_bytes();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(net.edge_message_count(e), 0);
    EXPECT_EQ(net.edge_message_count(e, MsgClass::kControl), 0);
  }
  EXPECT_EQ(net.max_edge_message_count(), 0);
  const RunStats stats = net.run();
  EXPECT_EQ(stats.control_messages, 1);
  EXPECT_EQ(stats.algorithm_messages, 0);
  EXPECT_EQ(net.edge_message_count(0, MsgClass::kControl), 1);
  EXPECT_EQ(net.edge_message_count(0), 1);
  EXPECT_EQ(net.edge_message_count(1), 0);
  for (const MsgClass cls : {MsgClass::kAlgorithm, MsgClass::kRecovery}) {
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(net.edge_message_count(e, cls), 0);
    }
    EXPECT_EQ(net.max_edge_message_count(cls), 0);
  }
  EXPECT_EQ(net.max_edge_message_count(MsgClass::kControl), 1);
  EXPECT_EQ(net.max_edge_message_count(), 1);
  // Exactly one ledger array (the control one) was allocated.
  EXPECT_EQ(net.memory_bytes() - before,
            static_cast<std::size_t>(g.edge_count()) * sizeof(std::int64_t));
}

TEST(Network, DeterministicAcrossIdenticalSeeds) {
  Rng rng(1);
  Graph g = connected_gnp(12, 0.3, WeightSpec::uniform(1, 9), rng);
  auto run_once = [&] {
    Network net(g, echo_factory(0), make_uniform_delay(0.0, 1.0), 99);
    return net.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.algorithm_messages, b.algorithm_messages);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
}

}  // namespace
}  // namespace csca
