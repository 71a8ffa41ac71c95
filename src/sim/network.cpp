#include "sim/network.h"

namespace csca {

Network::Network(const Graph& g, const ProcessFactory& factory,
                 std::unique_ptr<DelayModel> delay, std::uint64_t seed)
    : Network(g, ProcessStore::from_factory(g.node_count(), factory),
              std::move(delay), seed) {}

Network::Network(const Graph& g, ProcessStore store,
                 std::unique_ptr<DelayModel> delay, std::uint64_t seed)
    : ProcessHost(g, std::move(store)),
      pipeline_(g, std::move(delay), seed) {
  // Pre-size the tiered queue from the topology: wavefront workloads
  // hold O(n + m) deliveries in flight at peak, and million-event runs
  // should not pay repeated far-tier regrowth to discover that.
  queue_.reserve(static_cast<std::size_t>(g.node_count()) +
                 static_cast<std::size_t>(g.edge_count()));
}

void Network::set_keyed_delays(bool on) {
  require(!started_,
          "keyed-delay mode must be chosen before the first step");
  pipeline_.set_keyed(on);
}

void Network::set_faults(const FaultInjector* f) {
  require(!started_, "faults must be attached before the first step");
  pipeline_.set_faults(f);
}

void Network::engine_send(NodeId from, EdgeId e, Message m, MsgClass cls) {
  // Recovery passes re-bill everything the re-executed protocol sends
  // (see set_recovery_billing); the remap happens before any counter is
  // touched so the per-class ledgers stay conserved.
  if (recovery_billing_) cls = MsgClass::kRecovery;
  const SendOutcome out = pipeline_.send(from, e, now_, m, cls, stats_);
  if (!out.billed()) return;
  ++edge_counts(cls)[static_cast<std::size_t>(e)];
  if (!out.queued()) {
    if (observer_) observer_->on_drop(*this, from, e, cls, out.reason);
    return;
  }
  if (!out.duplicate) {
    push(out.arrival, std::move(m));
    if (observer_) notify_send(from, e, cls, out);
    return;
  }
  // The phantom copy takes the next event sequence number, exactly like
  // the sharded engines' next send index.
  push(out.arrival, Message(m));
  if (observer_) notify_send(from, e, cls, out);
  push(out.dup_arrival, std::move(m));
  if (observer_) observer_->on_duplicate(*this, from, e, out.dup_arrival);
}

void Network::notify_send(NodeId from, EdgeId e, MsgClass cls,
                          const SendOutcome& out) {
  observer_->on_send(*this, from, e, cls, out.delay, out.arrival);
  if (out.garbled) observer_->on_garble(*this, from, e, out.arrival);
  if (out.byzantine != FaultInjector::ByzantineFate::kNone) {
    observer_->on_byzantine(
        *this, from, e, out.byzantine == FaultInjector::ByzantineFate::kForge,
        out.arrival);
  }
}

void Network::engine_schedule_self(NodeId v, double delay, Message m) {
  require_lit(delay >= 0.0, "self-delivery delay must be non-negative");
  if (pipeline_.crashed(v, now_ + delay)) return;
  m.from = v;
  m.edge = kNoEdge;
  push(now_ + delay, std::move(m));
  if (observer_) observer_->on_self_schedule(*this, v, delay);
}

void Network::engine_finish(NodeId v) {
  if (stamp_finish(v, now_) && observer_) observer_->on_finish(*this, v, now_);
}

void Network::ensure_started() {
  if (started_) return;
  started_ = true;
  now_ = 0;
  for (NodeId v = 0; v < graph_->node_count(); ++v) {
    // A node crashed at time 0 never participates at all.
    if (pipeline_.crashed(v, 0.0)) continue;
    Context ctx = make_context(v);
    processes_.at(v).on_start(ctx);
  }
}

bool Network::step() {
  ensure_started();
  if (queue_.empty()) return false;
  deliver(queue_.top_key());
  return true;
}

void Network::deliver(HeapKey key) {
  now_ = key.t;
  const Message msg = queue_.pop();
  // The delivery target is not stored with the pooled node; an edge
  // message goes to the endpoint opposite its stamped sender, a
  // self-delivery back to the sender itself.
  const NodeId to =
      msg.edge == kNoEdge ? msg.from : graph_->other(msg.edge, msg.from);
  // completion_time is the paper's time measure: the clock of the last
  // *edge* delivery. Free self-deliveries (deferred local computation)
  // advance the clock but must not inflate the measured time.
  if (msg.edge != kNoEdge) stats_.completion_time = now_;
  ++stats_.events;
  if (observer_) observer_->on_deliver(*this, to, msg, now_);
  Context ctx = make_context(to);
  processes_.at(to).on_message(ctx, msg);
}

RunStats Network::run(double max_time) {
  ensure_started();
  // The loop peeks once per event: the key that passes the budget test
  // is handed straight to deliver() instead of being recomputed.
  while (!queue_.empty()) {
    const HeapKey key = queue_.top_key();
    if (key.t > max_time) break;
    deliver(key);
  }
  // Cut short by the budget: the slice consumed the full interval, so
  // advance the clock to the boundary (see the contract in network.h).
  // Events already queued beyond max_time stay queued for the resume.
  if (!queue_.empty() && now_ < max_time) now_ = max_time;
  return stats_;
}

}  // namespace csca
