#include "check/invariants.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "conn/dfs.h"
#include "conn/flood.h"
#include "fault/reliable_link.h"
#include "graph/generators.h"

namespace csca {
namespace {

Network flood_network(const Graph& g) {
  return Network(
      g, [](NodeId v) { return std::make_unique<FloodProcess>(v, 0); },
      make_exact_delay());
}

TEST(Invariants, CleanFloodRunPasses) {
  Rng rng(1);
  const Graph g = grid_graph(3, 4, WeightSpec::uniform(1, 9), rng);
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

TEST(Invariants, ReactivePostFinishSendsAllowed) {
  // DFS on a cycle: the last probe of a cross edge reaches a node that
  // already finished, and its reject reply must not be flagged.
  Rng rng(2);
  const Graph g = cycle_graph(5, WeightSpec::uniform(1, 5), rng);
  Network net(
      g, [](NodeId v) { return std::make_unique<DfsProcess>(v, 0); },
      make_exact_delay());
  DefaultInvariantChecker checker;
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  EXPECT_TRUE(net.process_as<DfsProcess>(0).done());
}

// Finishes in on_start and only then originates traffic: the kind of
// "talks after claiming to be done" bug the checker exists to catch.
class FinishThenSend final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    ctx.finish();
    ctx.send(ctx.incident()[0], Message{0}, MsgClass::kAlgorithm);
  }
  void on_message(Context&, const Message&) override {}
};

TEST(Invariants, SpontaneousPostFinishSendFlagged) {
  Rng rng(3);
  const Graph g = path_graph(2, WeightSpec::constant(1), rng);
  Network net(
      g, [](NodeId) { return std::make_unique<FinishThenSend>(); },
      make_exact_delay());
  DefaultInvariantChecker checker;
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("spontaneous send"),
            std::string::npos);
}

TEST(Invariants, FailFastThrowsAtTheOffendingEvent) {
  Rng rng(4);
  const Graph g = path_graph(2, WeightSpec::constant(1), rng);
  Network net(
      g, [](NodeId) { return std::make_unique<FinishThenSend>(); },
      make_exact_delay());
  DefaultInvariantChecker checker({.fail_fast = true});
  net.set_observer(&checker);
  EXPECT_THROW(net.run(), InvariantError);
}

TEST(Invariants, DeliveryWithoutSendFlagged) {
  Rng rng(5);
  const Graph g = path_graph(2, WeightSpec::constant(1), rng);
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  // Fabricate a delivery the checker never saw a send for.
  Message m{0};
  m.from = 0;
  m.edge = 0;
  checker.on_deliver(net, 1, m, 0.0);
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("without a matching send"),
            std::string::npos);
}

TEST(Invariants, NanDelayFlagged) {
  Rng rng(6);
  const Graph g = path_graph(2, WeightSpec::constant(1), rng);
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  checker.on_send(net, 0, 0, MsgClass::kAlgorithm,
                  std::numeric_limits<double>::quiet_NaN(), 0.0);
  ASSERT_FALSE(checker.ok());
  EXPECT_NE(checker.violations().front().find("delay model produced"),
            std::string::npos);
}

TEST(Invariants, LateAttachmentCaughtByFinalCheck) {
  // Attaching mid-run means the checker's tally cannot match the
  // engine's counters; check_final must say so rather than vouch for a
  // run it only half observed.
  Rng rng(7);
  const Graph g = grid_graph(3, 3, WeightSpec::constant(2), rng);
  Network net = flood_network(g);
  for (int i = 0; i < 3; ++i) net.step();
  DefaultInvariantChecker checker;
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  EXPECT_FALSE(checker.ok());
}

// Direct-drive tests: the hooks are called by hand with chosen arrival
// times, so each path through the channel bookkeeping is pinned by the
// exact violation it reports (or by its silence).

// One edge 0-1 of weight 4: the directed channel 0->1 is driven by hand.
Graph one_edge() {
  Rng rng(8);
  return path_graph(2, WeightSpec::constant(4), rng);
}

Message frame_from_zero(Message m = Message{0}) {
  m.from = 0;
  m.edge = 0;
  return m;
}

bool reported(const DefaultInvariantChecker& checker,
              const std::string& what) {
  const auto& v = checker.violations();
  return std::find(v.begin(), v.end(), what) != v.end();
}

TEST(Invariants, FifoClampViolationNamesTheChannelTail) {
  const Graph g = one_edge();
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  checker.on_send(net, 0, 0, MsgClass::kAlgorithm, 2.0, 2.0);
  checker.on_send(net, 0, 0, MsgClass::kAlgorithm, 1.0, 1.0);
  ASSERT_EQ(checker.violations().size(), 1U);
  EXPECT_EQ(checker.violations().front(),
            "arrival 1 on edge 0 violates the FIFO clamp (now=0, channel "
            "tail=2)");
}

TEST(Invariants, FifoOrderViolationPopsTheOldestSend) {
  const Graph g = one_edge();
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  for (const double arrival : {1.0, 2.0, 3.0}) {
    checker.on_send(net, 0, 0, MsgClass::kAlgorithm, arrival, arrival);
  }
  // Arrives at 2 while the send due at 1 is still outstanding: reported,
  // and the stale head is discarded so the channel stays in step.
  checker.on_deliver(net, 1, frame_from_zero(), 2.0);
  ASSERT_EQ(checker.violations().size(), 1U);
  EXPECT_EQ(checker.violations().front(),
            "FIFO order violated on edge 0: oldest outstanding send "
            "arrives at 1 but a delivery happened (t=2)");
  checker.on_deliver(net, 1, frame_from_zero(), 2.0);
  checker.on_deliver(net, 1, frame_from_zero(), 3.0);
  EXPECT_EQ(checker.violations().size(), 1U);
}

TEST(Invariants, PhantomDuplicateMatchesAfterLaterTraffic) {
  const Graph g = one_edge();
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  checker.on_send(net, 0, 0, MsgClass::kAlgorithm, 1.0, 1.0);
  checker.on_duplicate(net, 0, 0, 3.0);
  checker.on_send(net, 0, 0, MsgClass::kAlgorithm, 2.0, 2.0);
  // The later send overtakes the phantom: both FIFO heads match first,
  // then the phantom lands at its recorded time.
  checker.on_deliver(net, 1, frame_from_zero(), 1.0);
  checker.on_deliver(net, 1, frame_from_zero(), 2.0);
  checker.on_deliver(net, 1, frame_from_zero(), 3.0);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  // The phantom was consumed: a second copy at 3 has nothing to match.
  checker.on_deliver(net, 1, frame_from_zero(), 3.0);
  ASSERT_EQ(checker.violations().size(), 1U);
  EXPECT_EQ(checker.violations().front(),
            "delivery to node 1 over edge 0 without a matching send (t=3)");
}

TEST(Invariants, UndeliveredSendReportedAtQuiescence) {
  const Graph g = one_edge();
  Network net = flood_network(g);
  ASSERT_TRUE(net.idle());
  DefaultInvariantChecker checker;
  checker.on_send(net, 0, 0, MsgClass::kAlgorithm, 1.0, 1.0);
  checker.on_send(net, 0, 0, MsgClass::kAlgorithm, 2.0, 2.0);
  checker.on_deliver(net, 1, frame_from_zero(), 1.0);
  checker.check_final(net);
  EXPECT_TRUE(reported(
      checker, "1 sent message(s) never delivered on a quiescent network"));
  EXPECT_FALSE(reported(checker, "1 phantom duplicate(s) never delivered "
                                 "on a quiescent network"));
}

TEST(Invariants, UndeliveredDuplicateReportedAtQuiescence) {
  const Graph g = one_edge();
  Network net = flood_network(g);
  ASSERT_TRUE(net.idle());
  DefaultInvariantChecker checker;
  checker.on_send(net, 0, 0, MsgClass::kAlgorithm, 1.0, 1.0);
  checker.on_duplicate(net, 0, 0, 2.0);
  checker.on_deliver(net, 1, frame_from_zero(), 1.0);
  checker.check_final(net);
  EXPECT_TRUE(reported(checker, "1 phantom duplicate(s) never delivered "
                                "on a quiescent network"));
  EXPECT_FALSE(reported(
      checker, "1 sent message(s) never delivered on a quiescent network"));
}

TEST(Invariants, OutOfOrderArqDataDrainsOnceTheGapFills) {
  const Graph g = one_edge();
  Network net(g,
              arq_factory([](NodeId v) {
                return std::make_unique<FloodProcess>(v, 0);
              }),
              make_exact_delay());
  // Sends and delivers one DATA frame per seq over channel 0->1, one
  // time unit apart.
  const auto feed = [&net](DefaultInvariantChecker& c,
                           std::initializer_list<std::int64_t> seqs) {
    double t = 0.0;
    for (const std::int64_t seq : seqs) {
      t += 1.0;
      c.on_send(net, 0, 0, MsgClass::kAlgorithm, t, t);
      c.on_deliver(net, 1, frame_from_zero(arq_make_data(seq, Message{5})),
                   t);
    }
  };
  // Both see seqs 1 and 2 out of order; only `filled` then sees the 0
  // that fills the gap.
  DefaultInvariantChecker gap;
  DefaultInvariantChecker filled;
  feed(gap, {1, 2});
  feed(filled, {1, 2, 0});
  EXPECT_TRUE(gap.ok()) << gap.violations().front();
  EXPECT_TRUE(filled.ok()) << filled.violations().front();
  // The real run frames exactly one DATA from the root to node 1.
  net.run();
  ASSERT_EQ(arq_host(net, 1).next_expected_in(0), 1);
  gap.check_arq(net);
  filled.check_arq(net);
  EXPECT_TRUE(reported(gap, "ARQ receiver state at node 1 edge 0 (next "
                            "expected 1) diverges from the checker's "
                            "frame replay (0)"));
  EXPECT_TRUE(reported(filled, "ARQ receiver state at node 1 edge 0 (next "
                               "expected 1) diverges from the checker's "
                               "frame replay (3)"));
}

// Fault hooks on an edge the graph does not have report the same named
// violation as on_send, instead of indexing past a tally or throwing.
TEST(Invariants, DropOnOutOfRangeEdgeReported) {
  const Graph g = one_edge();
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  checker.on_drop(net, 0, 5, MsgClass::kAlgorithm, FaultDropReason::kChannelDrop);
  ASSERT_EQ(checker.violations().size(), 1U);
  EXPECT_EQ(checker.violations().front(),
            "dropped send on out-of-range edge 5 by node 0 (t=0)");
}

TEST(Invariants, DuplicateOnOutOfRangeEdgeReported) {
  const Graph g = one_edge();
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  checker.on_duplicate(net, 1, -1, 1.0);
  ASSERT_EQ(checker.violations().size(), 1U);
  EXPECT_EQ(checker.violations().front(),
            "duplicate on out-of-range edge -1 by node 1 (t=0)");
}

TEST(Invariants, GarbleOnOutOfRangeEdgeReported) {
  const Graph g = one_edge();
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  checker.on_garble(net, 0, 1, 1.0);
  ASSERT_EQ(checker.violations().size(), 1U);
  EXPECT_EQ(checker.violations().front(),
            "garbled send on out-of-range edge 1 by node 0 (t=0)");
  EXPECT_EQ(checker.garbles_seen(), 0);
}

// The checker's footprint is O(channels) words plus the sends in
// flight; a per-channel container (a deque costs ~700 B even when
// empty) would blow this budget by an order of magnitude.
TEST(Invariants, FootprintStaysWithinSixtyFourBytesPerChannel) {
  Rng rng(9);
  const Graph g = grid_graph(250, 250, WeightSpec::uniform(1, 9), rng);
  Network net = flood_network(g);
  DefaultInvariantChecker checker;
  net.set_observer(&checker);
  net.run();
  checker.check_final(net);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
  const double channels = 2.0 * g.edge_count();
  EXPECT_LE(static_cast<double>(checker.memory_bytes()) / channels, 64.0);
}

}  // namespace
}  // namespace csca
