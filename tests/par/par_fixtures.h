// Shared fixtures of the cross-engine suites (par, timewarp, fault and
// churn): the bit-identity comparisons every backend is held to against
// the keyed sequential Network, and the TTL storms they replay.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "graph/graph.h"
#include "sim/engine.h"

namespace csca {

// Bit-identical ledger comparison: the parallel engines' contract is
// exact equality with the sequential keyed execution, including the
// completion-time double.
inline void expect_stats_identical(const RunStats& a, const RunStats& b,
                                   const std::string& label) {
  EXPECT_EQ(a.algorithm_messages, b.algorithm_messages) << label;
  EXPECT_EQ(a.control_messages, b.control_messages) << label;
  EXPECT_EQ(a.recovery_messages, b.recovery_messages) << label;
  EXPECT_EQ(a.algorithm_cost, b.algorithm_cost) << label;
  EXPECT_EQ(a.control_cost, b.control_cost) << label;
  EXPECT_EQ(a.recovery_cost, b.recovery_cost) << label;
  EXPECT_EQ(a.events, b.events) << label;
  EXPECT_EQ(a.completion_time, b.completion_time) << label;
}

// Per-node finish times and per-link message counts, in total and for
// every ledger class.
inline void expect_hosts_identical(const ProcessHost& a, const ProcessHost& b,
                                   const Graph& g, const std::string& label) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(a.finish_time(v), b.finish_time(v)) << label << " node " << v;
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(a.edge_message_count(e), b.edge_message_count(e))
        << label << " edge " << e;
    for (int c = 0; c < kMsgClassCount; ++c) {
      const auto cls = static_cast<MsgClass>(c);
      EXPECT_EQ(a.edge_message_count(e, cls), b.edge_message_count(e, cls))
          << label << " edge " << e << " class " << c;
    }
  }
}

// TTL broadcast storm with mixed ledger classes (the golden-ledger
// workload of the sequential engine tests): every delivery with ttl > 0
// re-broadcasts on all incident edges, alternating the cost class.
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
    const MsgClass cls =
        (ttl % 2 != 0) ? MsgClass::kAlgorithm : MsgClass::kControl;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, m.at(1) + 1, ctx.self(), m.at(3)}},
               cls);
    }
  }
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<Storm>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const Storm&>(saved);
  }

 private:
  std::int64_t ttl_;
};

// Bounded-hop storm immune to payload corruption: each message carries
// its hop budget twice ({ttl, -ttl}), so a single-word garble always
// breaks the pair and the receiver discards the message instead of
// letting a rewritten counter restart the cascade (which would make the
// storm supercritical at any garble rate). The surviving TTLs strictly
// decrease, behaviour stays bounded under every fault mix, and the
// keyed corruption itself must still replay bit-identically.
class ClampedStorm final : public Process {
 public:
  explicit ClampedStorm(std::int64_t ttl) : ttl_(ttl) {}
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl_, -ttl_}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    if (m.at(0) + m.at(1) != 0) return;  // garbled in flight
    const std::int64_t ttl =
        std::min<std::int64_t>(std::max<std::int64_t>(m.at(0), 0), ttl_);
    if (ttl <= 0) return;
    const MsgClass cls =
        (ttl % 2 != 0) ? MsgClass::kAlgorithm : MsgClass::kControl;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {ttl - 1, -(ttl - 1)}}, cls);
    }
  }
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<ClampedStorm>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const ClampedStorm&>(saved);
  }

 private:
  std::int64_t ttl_;
};

}  // namespace csca
