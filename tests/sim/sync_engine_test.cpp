#include "sim/sync_engine.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "graph/generators.h"

namespace csca {
namespace {

// Runs call and expects a PreconditionError whose message is text
// followed by the call-site location.
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

// Weighted-synchronous flooding: records the pulse at which the wave
// reaches each node; with exact w(e) delays that pulse equals dist(0, v).
class SyncFlood final : public SyncProcess {
 public:
  void on_start(SyncContext& ctx) override {
    if (ctx.self() == 0) spread(ctx);
  }
  void on_message(SyncContext& ctx, const Message&) override {
    if (reached_at >= 0) return;
    spread(ctx);
  }
  std::int64_t reached_at = -1;

 private:
  void spread(SyncContext& ctx) {
    reached_at = ctx.pulse();
    for (EdgeId e : ctx.incident()) ctx.send(e, Message{0}, MsgClass::kAlgorithm);
    ctx.finish();
  }
};

TEST(SyncEngine, FloodArrivalPulsesEqualShortestDistanceOnPath) {
  Rng rng(1);
  Graph g = path_graph(5, WeightSpec::constant(3), rng);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<SyncFlood>(); });
  const auto stats = eng.run();
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(eng.process_as<SyncFlood>(v).reached_at, 3 * v);
  }
  EXPECT_TRUE(eng.all_finished());
  // Node 4 is reached at pulse 12; its flood-back lands at node 3 at
  // pulse 15, the last delivered event.
  EXPECT_DOUBLE_EQ(stats.completion_time, 15.0);
}

TEST(SyncEngine, MessageCostsAccumulateWeights) {
  Graph g(2);
  g.add_edge(0, 1, 9);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<SyncFlood>(); });
  const auto stats = eng.run();
  // 0 floods at pulse 0; 1 floods back at pulse 9.
  EXPECT_EQ(stats.algorithm_messages, 2);
  EXPECT_EQ(stats.algorithm_cost, 18);
}

// Sends on a weight-4 edge at pulse 2 (violating in-synch discipline).
class OffBeat final : public SyncProcess {
 public:
  void on_start(SyncContext& ctx) override {
    if (ctx.self() == 0) ctx.schedule_wakeup(2);
  }
  void on_wakeup(SyncContext& ctx) override {
    ctx.send(ctx.incident()[0], Message{0}, MsgClass::kAlgorithm);
  }
  void on_message(SyncContext&, const Message&) override {}
};

TEST(SyncEngine, InSynchEnforcementRejectsOffBeatSends) {
  Graph g(2);
  g.add_edge(0, 1, 4);
  {
    SyncEngine lax(g, [](NodeId) { return std::make_unique<OffBeat>(); },
                   /*enforce_in_synch=*/false);
    EXPECT_NO_THROW(lax.run());
  }
  {
    SyncEngine strict(
        g, [](NodeId) { return std::make_unique<OffBeat>(); },
        /*enforce_in_synch=*/true);
    expect_precondition([&] { strict.run(); },
                        "in-synch protocol may send on edge e only at "
                        "pulses divisible by w(e)");
  }
}

// Wakes itself every k pulses, counting activations.
class Ticker final : public SyncProcess {
 public:
  explicit Ticker(std::int64_t period) : period_(period) {}
  void on_start(SyncContext& ctx) override {
    if (ctx.self() == 0) ctx.schedule_wakeup(period_);
  }
  void on_wakeup(SyncContext& ctx) override {
    ticks.push_back(ctx.pulse());
    if (ticks.size() < 5) ctx.schedule_wakeup(ctx.pulse() + period_);
  }
  void on_message(SyncContext&, const Message&) override {}
  std::vector<std::int64_t> ticks;

 private:
  std::int64_t period_;
};

TEST(SyncEngine, WakeupsFireAtRequestedPulses) {
  Graph g(1);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<Ticker>(10); });
  eng.run();
  EXPECT_EQ(eng.process_as<Ticker>(0).ticks,
            (std::vector<std::int64_t>{10, 20, 30, 40, 50}));
}

TEST(SyncEngine, WakeupInPastRejected) {
  class BadWakeup final : public SyncProcess {
   public:
    void on_start(SyncContext& ctx) override {
      if (ctx.self() == 0) ctx.schedule_wakeup(0);
    }
    void on_message(SyncContext&, const Message&) override {}
  };
  Graph g(1);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<BadWakeup>(); });
  expect_precondition([&] { eng.run(); },
                      "wakeup must be scheduled strictly ahead");
}

TEST(SyncEngine, SendingOnForeignEdgeRejected) {
  class Trespasser final : public SyncProcess {
   public:
    void on_start(SyncContext& ctx) override {
      if (ctx.self() == 0) ctx.send(1, Message{0}, MsgClass::kAlgorithm);  // edge 1 = (1,2)
    }
    void on_message(SyncContext&, const Message&) override {}
  };
  Graph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<Trespasser>(); });
  expect_precondition([&] { eng.run(); },
                      "process may only send on its own incident edges");
}

TEST(SyncEngine, MaxPulseStopsExecution) {
  Rng rng(2);
  Graph g = path_graph(6, WeightSpec::constant(5), rng);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<SyncFlood>(); });
  eng.run(11);
  EXPECT_EQ(eng.process_as<SyncFlood>(2).reached_at, 10);
  EXPECT_EQ(eng.process_as<SyncFlood>(3).reached_at, -1);
  EXPECT_FALSE(eng.idle());
}

TEST(SyncEngine, BudgetedRunPreservesOverBudgetEvents) {
  // A budget cut must leave every event beyond max_pulse queued: the
  // resumed execution has to be indistinguishable from an unbudgeted
  // one (the hybrid drivers charge pulse budgets one slice at a time).
  Rng rng(2);
  Graph g = path_graph(6, WeightSpec::constant(5), rng);
  const auto factory = [](NodeId) { return std::make_unique<SyncFlood>(); };

  SyncEngine whole(g, factory);
  const RunStats full = whole.run();

  SyncEngine sliced(g, factory);
  sliced.run(11);   // cuts mid-flood; events at pulse 15 stay queued
  sliced.run(27);   // another partial slice
  const RunStats resumed = sliced.run();

  EXPECT_TRUE(sliced.idle());
  EXPECT_EQ(resumed.events, full.events);
  EXPECT_EQ(resumed.algorithm_messages, full.algorithm_messages);
  EXPECT_EQ(resumed.algorithm_cost, full.algorithm_cost);
  EXPECT_DOUBLE_EQ(resumed.completion_time, full.completion_time);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(sliced.process_as<SyncFlood>(v).reached_at,
              whole.process_as<SyncFlood>(v).reached_at);
  }
}

TEST(SyncEngine, WakeupBeyondBudgetSurvivesResume) {
  Graph g(1);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<Ticker>(10); });
  eng.run(5);  // budget ends before the first wakeup at pulse 10
  EXPECT_TRUE(eng.process_as<Ticker>(0).ticks.empty());
  EXPECT_FALSE(eng.idle());
  eng.run();
  EXPECT_EQ(eng.process_as<Ticker>(0).ticks,
            (std::vector<std::int64_t>{10, 20, 30, 40, 50}));
}

TEST(SyncEngine, MessagesDeliveredBeforeWakeupAtSamePulse) {
  // Node 0 sends over weight-5 edge at pulse 0 and node 1 schedules a
  // wakeup at pulse 5: the message handler must run first.
  class Receiver final : public SyncProcess {
   public:
    void on_start(SyncContext& ctx) override {
      if (ctx.self() == 1) ctx.schedule_wakeup(5);
      if (ctx.self() == 0) ctx.send(ctx.incident()[0], Message{0}, MsgClass::kAlgorithm);
    }
    void on_message(SyncContext&, const Message&) override {
      order.push_back('m');
    }
    void on_wakeup(SyncContext&) override { order.push_back('w'); }
    std::string order;
  };
  Graph g(2);
  g.add_edge(0, 1, 5);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<Receiver>(); });
  eng.run();
  EXPECT_EQ(eng.process_as<Receiver>(1).order, "mw");
}

TEST(SyncEngine, RunAfterQuiescenceIsIdempotent) {
  // run() resumes rather than restarting: after quiescence a second
  // call delivers nothing, fires no on_start hooks again, and returns
  // the same ledger (matching Network::run's contract).
  Graph g(2);
  g.add_edge(0, 1, 9);
  SyncEngine eng(g, [](NodeId) { return std::make_unique<SyncFlood>(); });
  const RunStats first = eng.run();
  const RunStats again = eng.run();
  EXPECT_EQ(again.events, first.events);
  EXPECT_EQ(again.algorithm_messages, first.algorithm_messages);
  EXPECT_DOUBLE_EQ(again.completion_time, first.completion_time);
  EXPECT_EQ(eng.process_as<SyncFlood>(1).reached_at, 9);
}

}  // namespace
}  // namespace csca
