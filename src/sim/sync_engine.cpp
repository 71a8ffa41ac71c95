#include "sim/sync_engine.h"

#include <algorithm>

namespace csca {

SyncEngine::SyncEngine(const Graph& g, const ProcessFactory& factory,
                       bool enforce_in_synch)
    : SyncEngine(g, ProcessStore::from_factory(g.node_count(), factory),
                 enforce_in_synch) {}

SyncEngine::SyncEngine(const Graph& g, ProcessStore store,
                       bool enforce_in_synch)
    : graph_(&g),
      processes_(std::move(store)),
      pipeline_(g),
      enforce_in_synch_(enforce_in_synch),
      finished_(static_cast<std::size_t>(g.node_count()), 0) {
  require(processes_.size() == g.node_count(),
          "process store size must match the node count");
  // Pre-size the tiered queue from the topology: the pulse engine's far
  // horizon fills with one event per in-flight transmission, O(n + m)
  // for the synchronous wavefront protocols.
  queue_.reserve(static_cast<std::size_t>(g.node_count()) +
                 static_cast<std::size_t>(g.edge_count()));
}

void SyncEngine::do_send(NodeId from, EdgeId e, Message m, MsgClass cls) {
  const Weight w = graph_->edge(e).w;
  if (enforce_in_synch_) {
    require_lit(pulse_ % w == 0,
                "in-synch protocol may send on edge e only at pulses "
                "divisible by w(e)");
  }
  const SendOutcome out =
      pipeline_.send_pulse(from, e, pulse_, m, cls, stats_);
  if (!out.queued()) return;
  check_event_bounds(pulse_ + w);
  if (!out.duplicate) {
    queue_.push(event_key(pulse_ + w, 0, seq_++), std::move(m));
    return;
  }
  Message dup = m;
  check_event_bounds(pulse_ + 2 * w);
  queue_.push(event_key(pulse_ + w, 0, seq_++), std::move(m));
  queue_.push(event_key(pulse_ + 2 * w, 0, seq_++), std::move(dup));
}

void SyncEngine::set_faults(const FaultInjector* f) {
  require(!started_, "faults must be attached before the first step");
  pipeline_.set_faults(f);
}

void SyncEngine::do_wakeup(NodeId v, std::int64_t at_pulse) {
  require_lit(at_pulse > pulse_, "wakeup must be scheduled strictly ahead");
  if (pipeline_.crashed(v, static_cast<double>(at_pulse))) return;
  check_event_bounds(at_pulse);
  Message m;
  m.from = v;
  queue_.push(event_key(at_pulse, 1, seq_++), std::move(m));
}

void SyncEngine::do_finish(NodeId v) {
  finished_[static_cast<std::size_t>(v)] = 1;
}

void SyncEngine::ensure_started() {
  if (started_) return;
  started_ = true;
  pulse_ = 0;
  for (NodeId v = 0; v < graph_->node_count(); ++v) {
    if (pipeline_.crashed(v, 0.0)) continue;
    EngineContext ctx(*this, v);
    processes_.at(v).on_start(ctx);
  }
}

RunStats SyncEngine::run(std::int64_t max_pulse) {
  ensure_started();
  // Peek before popping: an event beyond the pulse budget must stay
  // queued so a later run() call resumes with it (popping it first and
  // then checking would silently destroy it).
  while (!queue_.empty()) {
    const HeapKey key = queue_.top_key();
    if (key.t > static_cast<double>(max_pulse)) break;
    const bool is_wakeup = (key.aux >> 31) != 0;
    const Message msg = queue_.pop();
    pulse_ = static_cast<std::int64_t>(key.t);
    stats_.completion_time = static_cast<double>(pulse_);
    ++stats_.events;
    const NodeId to =
        msg.edge == kNoEdge ? msg.from : graph_->other(msg.edge, msg.from);
    EngineContext ctx(*this, to);
    if (!is_wakeup) {
      processes_.at(to).on_message(ctx, msg);
    } else {
      processes_.at(to).on_wakeup(ctx);
    }
  }
  return stats_;
}

bool SyncEngine::all_finished() const {
  return std::all_of(finished_.begin(), finished_.end(),
                     [](char f) { return f != 0; });
}

}  // namespace csca
