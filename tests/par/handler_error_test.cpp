// Handler errors on the parallel engines. A protocol handler that throws
// on a delivery the keyed sequential Network makes must surface from
// ShardEngine::run and TimeWarpEngine::run as the same exception, with
// the same message, at every thread count — and the round team must
// stop and return rather than hang. TimeWarp holds a speculative throw
// on its done record and rethrows it only when that delivery commits
// (Done::error); ShardEngine's throw leaves the phase it ran in.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"
#include "sim/network.h"

namespace csca {
namespace {

class HandlerFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

constexpr NodeId kSource = 0;
constexpr NodeId kFaulty = 9;

// TTL storm from node 0. Node 9 relays its first delivery and throws on
// its second. The message names that delivery (sender, time, ttl), so
// only the sequential run's second delivery matches the Network's
// message; a speculative "second" on a mis-ordered history must roll
// back with its error.
class Refuser final : public Process {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() != kSource) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {3}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    if (ctx.self() == kFaulty && ++received_ == 2) {
      throw HandlerFault("node " + std::to_string(ctx.self()) +
                         " refuses delivery from " + std::to_string(m.from) +
                         " at t=" + std::to_string(ctx.now()) + " ttl " +
                         std::to_string(m.at(0)));
    }
    if (m.at(0) <= 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {m.at(0) - 1}}, MsgClass::kAlgorithm);
    }
  }
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<Refuser>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const Refuser&>(saved);
  }

 private:
  std::int64_t received_ = 0;
};

// Runs the engine and returns the HandlerFault's message; any other
// outcome fails the test.
template <typename Engine>
std::string handler_error(Engine& eng, const std::string& label) {
  try {
    eng.run();
  } catch (const HandlerFault& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": threw another type: " << e.what();
    return {};
  }
  ADD_FAILURE() << label << ": did not throw";
  return {};
}

TEST(ParallelHandlerError, CommittedThrowMatchesKeyedNetwork) {
  Rng rng(5);
  const Graph g = connected_gnp(24, 0.2, WeightSpec::uniform(1, 8), rng);
  const auto factory = [](NodeId) { return std::make_unique<Refuser>(); };
  constexpr std::uint64_t kSeed = 17;

  Network net(g, factory, make_uniform_delay(0.1, 0.9), kSeed);
  net.set_keyed_delays(true);
  const std::string want = handler_error(net, "Network");
  ASSERT_FALSE(want.empty());

  for (const int threads : {1, 4}) {
    const std::string label = "threads=" + std::to_string(threads);
    ShardEngine shard(g, factory, make_uniform_delay(0.1, 0.9), kSeed,
                      ShardEngine::Options{4, threads, {}});
    EXPECT_EQ(handler_error(shard, "ShardEngine " + label), want) << label;
    TimeWarpEngine tw(g, factory, make_uniform_delay(0.1, 0.9), kSeed,
                      TimeWarpEngine::Options{4, threads, 8, {}});
    EXPECT_EQ(handler_error(tw, "TimeWarpEngine " + label), want) << label;
  }
}

}  // namespace
}  // namespace csca
