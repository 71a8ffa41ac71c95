// The TTL storm and the seed-queue replica, copied from
// bench/bench_engine.cpp so storm_deep can report the engine's speed
// against the same-machine replica (ROADMAP item 1(a)) without linking a
// bench main. Keep the two copies in step until bench_engine retires.
#pragma once

#include <memory>
#include <queue>
#include <tuple>
#include <vector>

#include "sim/network.h"

namespace csca::perf {

// Node 0 seeds every incident edge; each delivery with ttl > 0 re-floods
// on all incident edges. The event count depends only on the topology
// and the ttl, not on delays.
class Storm final : public Process {
 public:
  explicit Storm(std::int64_t ttl) : ttl_(ttl) {}
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_, 0, 0, 0}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, m.at(1) + 1, ctx.self(), m.at(3)}},
               MsgClass::kAlgorithm);
    }
  }

 private:
  std::int64_t ttl_;
};

// The seed engine's hot path: one by-value node per pending delivery in
// a binary std::priority_queue, `top()` copying the node out before
// `pop()` sifts, and a heap-allocated std::vector payload per message.
// Delay draws, FIFO clamping and the storm handler match Network + Storm
// line for line, so the event sequence is identical and only the queue
// and message representation differ.
struct SeedFlood {
  struct Msg {
    int type = 0;
    std::vector<std::int64_t> data;
  };
  struct Node {
    double arrival;
    std::uint64_t seq;
    NodeId to;
    Msg msg;
    bool operator>(const Node& o) const {
      return std::tie(arrival, seq) > std::tie(o.arrival, o.seq);
    }
  };

  const Graph& g;
  std::unique_ptr<DelayModel> delay;
  Rng rng;
  std::priority_queue<Node, std::vector<Node>, std::greater<>> queue;
  std::vector<double> last_arrival;
  std::uint64_t seq = 0;
  double now = 0;
  std::int64_t events = 0;

  SeedFlood(const Graph& graph, std::unique_ptr<DelayModel> model,
            std::uint64_t seed)
      : g(graph),
        delay(std::move(model)),
        rng(seed),
        last_arrival(static_cast<std::size_t>(2 * graph.edge_count()), 0.0) {}

  void send(NodeId from, EdgeId e, Msg m) {
    const Edge& edge = g.edge(e);
    const double d = delay->delay(edge.w, rng);
    const std::size_t channel =
        static_cast<std::size_t>(2 * e) + (from == edge.u ? 0 : 1);
    const double arrival = std::max(now + d, last_arrival[channel]);
    last_arrival[channel] = arrival;
    queue.push(Node{arrival, seq++, g.other(e, from), std::move(m)});
  }

  void run(std::int64_t ttl) {
    for (EdgeId e : g.incident(0)) send(0, e, Msg{0, {ttl, 0, 0, 0}});
    while (!queue.empty()) {
      const Node ev = queue.top();
      queue.pop();
      now = ev.arrival;
      ++events;
      const std::int64_t t = ev.msg.data[0];
      if (t <= 0) continue;
      for (EdgeId e : g.incident(ev.to)) {
        send(ev.to, e,
             Msg{0, {t - 1, ev.msg.data[1] + 1, ev.to, ev.msg.data[3]}});
      }
    }
  }
};

}  // namespace csca::perf
