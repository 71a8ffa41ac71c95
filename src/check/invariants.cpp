#include "check/invariants.h"

#include <cmath>
#include <sstream>

#include "fault/fault_injector.h"
#include "fault/reliable_link.h"

namespace csca {

namespace {
std::string at_time(double t) {
  std::ostringstream os;
  os << " (t=" << t << ")";
  return os.str();
}
}  // namespace

void DefaultInvariantChecker::ensure_sized(const Network& net) {
  if (sized_) return;
  sized_ = true;
  const auto m = static_cast<std::size_t>(net.graph().edge_count());
  channels_.resize(2 * m);
  arq_expected_.assign(2 * m, 0);
  garbled_sent_.assign(2 * m, 0);
  arq_invalid_.assign(2 * m, 0);
  sent_algorithm_.assign(m, 0);
  sent_control_.assign(m, 0);
  sent_recovery_.assign(m, 0);
}

void DefaultInvariantChecker::report(std::string what) {
  if (opts_.fail_fast) {
    ensure(false, "invariant violation: " + what);
  }
  if (violations_.size() < opts_.max_violations) {
    violations_.push_back(std::move(what));
  } else {
    ++suppressed_;
  }
}

bool DefaultInvariantChecker::edge_in_range(const Network& net,
                                            const char* what, NodeId from,
                                            EdgeId e) {
  if (e >= 0 && e < net.graph().edge_count()) return true;
  std::ostringstream os;
  os << what << " on out-of-range edge " << e << " by node " << from
     << at_time(net.now());
  report(os.str());
  return false;
}

std::size_t DefaultInvariantChecker::channel_of(const Network& net,
                                                NodeId from,
                                                EdgeId e) const {
  const Edge& edge = net.graph().edges()[static_cast<std::size_t>(e)];
  return static_cast<std::size_t>(2 * e) + (from == edge.u ? 0 : 1);
}

void DefaultInvariantChecker::push_send(Fifo& chan, double arrival) {
  std::uint32_t s = free_slot_;
  if (s != kNoSlot) {
    free_slot_ = slots_[s].next;
    slots_[s] = {arrival, kNoSlot};
  } else {
    if (slots_.size() >= kNoSlot) {
      ensure(false, "invariant checker: slot arena exhausted");
    }
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back({arrival, kNoSlot});
  }
  if (chan.tail == kNoSlot) {
    chan.head = s;
  } else {
    slots_[chan.tail].next = s;
  }
  chan.tail = s;
  ++in_flight_;
}

void DefaultInvariantChecker::pop_send(Fifo& chan) {
  const std::uint32_t s = chan.head;
  chan.head = slots_[s].next;
  if (chan.head == kNoSlot) chan.tail = kNoSlot;
  slots_[s].next = free_slot_;
  free_slot_ = s;
  --in_flight_;
}

std::size_t DefaultInvariantChecker::memory_bytes() const {
  // libstdc++'s red-black tree node header: colour plus three links.
  constexpr std::size_t kTreeNode = 32;
  return channels_.capacity() * sizeof(Fifo) +
         slots_.capacity() * sizeof(Slot) +
         dup_arrivals_.size() *
             (kTreeNode + sizeof(decltype(dup_arrivals_)::value_type)) +
         arq_buffered_.size() *
             (kTreeNode + sizeof(decltype(arq_buffered_)::value_type)) +
         (arq_expected_.capacity() + garbled_sent_.capacity() +
          arq_invalid_.capacity() + sent_algorithm_.capacity() +
          sent_control_.capacity() + sent_recovery_.capacity()) *
             sizeof(std::int64_t);
}

void DefaultInvariantChecker::on_send(const Network& net, NodeId from,
                                      EdgeId e, MsgClass cls,
                                      double delay, double arrival) {
  ensure_sized(net);
  if (!edge_in_range(net, "send", from, e)) return;
  const Edge& edge = net.graph().edges()[static_cast<std::size_t>(e)];
  if (edge.u != from && edge.v != from) {
    std::ostringstream os;
    os << "node " << from << " sent on non-incident edge " << e << " ("
       << edge.u << "-" << edge.v << ")" << at_time(net.now());
    report(os.str());
  }
  const auto w = static_cast<double>(edge.w);
  if (std::isnan(delay) || delay < 0.0 || delay > w) {
    std::ostringstream os;
    os << "delay model produced " << delay << " outside [0, " << w
       << "] on edge " << e << at_time(net.now());
    report(os.str());
  }
  if (net.finished(from) && from != delivering_to_) {
    std::ostringstream os;
    os << "spontaneous send by finished node " << from << " on edge "
       << e << at_time(net.now());
    report(os.str());
  }
  if (faults_ != nullptr && faults_->crashed(from, net.now())) {
    std::ostringstream os;
    os << "send by node " << from << " on edge " << e
       << " after its crash" << at_time(net.now());
    report(os.str());
  }
  Fifo& chan = channels_[channel_of(net, from, e)];
  const double tail =
      chan.tail == kNoSlot ? net.now() : slots_[chan.tail].arrival;
  if (arrival < net.now() || arrival < tail) {
    std::ostringstream os;
    os << "arrival " << arrival << " on edge " << e
       << " violates the FIFO clamp (now=" << net.now()
       << ", channel tail=" << tail << ")";
    report(os.str());
  }
  push_send(chan, arrival);
  auto& tally = cls == MsgClass::kAlgorithm  ? sent_algorithm_
                : cls == MsgClass::kControl  ? sent_control_
                                             : sent_recovery_;
  ++tally[static_cast<std::size_t>(e)];
}

void DefaultInvariantChecker::on_self_schedule(const Network& net,
                                               NodeId v, double delay) {
  ensure_sized(net);
  ++self_schedules_seen_;
  if (std::isnan(delay) || delay < 0.0) {
    std::ostringstream os;
    os << "node " << v << " scheduled a self-delivery with delay "
       << delay << at_time(net.now());
    report(os.str());
  }
  if (net.finished(v) && v != delivering_to_) {
    std::ostringstream os;
    os << "spontaneous self-schedule by finished node " << v
       << at_time(net.now());
    report(os.str());
  }
}

void DefaultInvariantChecker::on_deliver(const Network& net, NodeId to,
                                         const Message& m, double t) {
  ensure_sized(net);
  ++deliveries_seen_;
  if (t < last_now_) {
    std::ostringstream os;
    os << "clock ran backwards: delivery at t=" << t << " after t="
       << last_now_;
    report(os.str());
  }
  last_now_ = t;
  if (m.edge == kNoEdge) {
    if (m.from != to) {
      std::ostringstream os;
      os << "self-delivery scheduled by node " << m.from
         << " delivered to node " << to << at_time(t);
      report(os.str());
    }
  } else if (m.edge < 0 || m.edge >= net.graph().edge_count()) {
    std::ostringstream os;
    os << "delivery over out-of-range edge " << m.edge << at_time(t);
    report(os.str());
  } else {
    const std::size_t ch = channel_of(net, m.from, m.edge);
    Fifo& chan = channels_[ch];
    if (chan.head != kNoSlot && slots_[chan.head].arrival == t) {
      pop_send(chan);
    } else if (const auto dup_it = dup_arrivals_.find({ch, t});
               dup_it != dup_arrivals_.end()) {
      // A phantom duplicate landing at its recorded arrival time.
      dup_arrivals_.erase(dup_it);
    } else if (chan.head == kNoSlot) {
      std::ostringstream os;
      os << "delivery to node " << to << " over edge " << m.edge
         << " without a matching send" << at_time(t);
      report(os.str());
    } else {
      std::ostringstream os;
      os << "FIFO order violated on edge " << m.edge
         << ": oldest outstanding send arrives at "
         << slots_[chan.head].arrival << " but a delivery happened"
         << at_time(t);
      report(os.str());
      pop_send(chan);
    }
    if (faults_ != nullptr) {
      if (faults_->link_down(m.edge, t)) {
        std::ostringstream os;
        os << "delivery over edge " << m.edge
           << " while the link is down" << at_time(t);
        report(os.str());
      }
      if (faults_->crashed(to, t)) {
        std::ostringstream os;
        os << "delivery to node " << to << " after its crash"
           << at_time(t);
        report(os.str());
      }
    }
    // Independent replay of the ARQ receiver: checksum-valid DATA
    // frame seqs must hand up a contiguous prefix per channel
    // (check_arq compares). Invalid frames are what receivers silently
    // discard, so they are tallied for the masking rule instead of
    // replayed.
    if (m.type == kArqData || m.type == kArqAck) {
      if (!arq_frame_valid(m)) {
        ++arq_invalid_[ch];
        ++invalid_seen_;
      } else if (m.type == kArqData) {
        std::int64_t& expected = arq_expected_[ch];
        if (const std::int64_t seq = m.data[0]; seq == expected) {
          ++expected;
          while (arq_buffered_.erase({ch, expected}) != 0) ++expected;
        } else if (seq > expected) {
          arq_buffered_.insert({ch, seq});
        }
      }
    }
    // Graph::other() throws for a sender that is no endpoint at all;
    // only that case pays for the checked call.
    const Edge& edge =
        net.graph().edges()[static_cast<std::size_t>(m.edge)];
    const NodeId opposite = m.from == edge.u   ? edge.v
                            : m.from == edge.v ? edge.u
                                               : net.graph().other(
                                                     m.edge, m.from);
    if (opposite != to) {
      std::ostringstream os;
      os << "edge message from node " << m.from << " over edge "
         << m.edge << " delivered to node " << to
         << ", not the opposite endpoint" << at_time(t);
      report(os.str());
    }
  }
  delivering_to_ = to;
}

void DefaultInvariantChecker::on_drop(const Network& net, NodeId from,
                                      EdgeId e, MsgClass cls,
                                      FaultDropReason /*reason*/) {
  ensure_sized(net);
  if (!edge_in_range(net, "dropped send", from, e)) return;
  ++drops_seen_;
  // The attempt is charged to the ledger even though nothing was
  // queued, so it joins the send tally — but not the channel queue.
  auto& tally = cls == MsgClass::kAlgorithm  ? sent_algorithm_
                : cls == MsgClass::kControl  ? sent_control_
                                             : sent_recovery_;
  ++tally[static_cast<std::size_t>(e)];
  const Edge& edge = net.graph().edges()[static_cast<std::size_t>(e)];
  if (edge.u != from && edge.v != from) {
    std::ostringstream os;
    os << "node " << from << " dropped-send on non-incident edge " << e
       << at_time(net.now());
    report(os.str());
  }
}

void DefaultInvariantChecker::on_duplicate(const Network& net,
                                           NodeId from, EdgeId e,
                                           double arrival) {
  ensure_sized(net);
  if (!edge_in_range(net, "duplicate", from, e)) return;
  ++dups_seen_;
  if (arrival < net.now()) {
    std::ostringstream os;
    os << "duplicate on edge " << e << " scheduled into the past ("
       << arrival << ")" << at_time(net.now());
    report(os.str());
  }
  dup_arrivals_.insert({channel_of(net, from, e), arrival});
}

void DefaultInvariantChecker::on_garble(const Network& net, NodeId from,
                                        EdgeId e, double arrival) {
  ensure_sized(net);
  if (!edge_in_range(net, "garbled send", from, e)) return;
  ++garbles_seen_;
  if (arrival < net.now()) {
    std::ostringstream os;
    os << "garbled send on edge " << e << " scheduled into the past ("
       << arrival << ")" << at_time(net.now());
    report(os.str());
  }
  ++garbled_sent_[channel_of(net, from, e)];
}

void DefaultInvariantChecker::on_finish(const Network& net, NodeId v,
                                        double t) {
  ensure_sized(net);
  if (t != net.now()) {
    std::ostringstream os;
    os << "node " << v << " finish time " << t
       << " differs from the clock " << net.now();
    report(os.str());
  }
}

void DefaultInvariantChecker::check_final(const Network& net) {
  ensure_sized(net);
  const Graph& g = net.graph();
  const RunStats& stats = net.stats();

  // Ledger conservation: RunStats totals vs the per-edge counters, and
  // the engine's counters vs this checker's independent tally.
  std::int64_t algo_msgs = 0;
  std::int64_t ctrl_msgs = 0;
  std::int64_t rec_msgs = 0;
  Weight algo_cost = 0;
  Weight ctrl_cost = 0;
  Weight rec_cost = 0;
  std::int64_t total_sends = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    const std::int64_t a = net.edge_message_count(e, MsgClass::kAlgorithm);
    const std::int64_t c = net.edge_message_count(e, MsgClass::kControl);
    const std::int64_t r = net.edge_message_count(e, MsgClass::kRecovery);
    const Weight w = g.edges()[i].w;
    algo_msgs += a;
    ctrl_msgs += c;
    rec_msgs += r;
    algo_cost += a * w;
    ctrl_cost += c * w;
    rec_cost += r * w;
    total_sends += a + c + r;
    if (a != sent_algorithm_[i] || c != sent_control_[i] ||
        r != sent_recovery_[i]) {
      std::ostringstream os;
      os << "edge " << e << " per-class counters (" << a << ", " << c
         << ", " << r << ") disagree with the observed sends ("
         << sent_algorithm_[i] << ", " << sent_control_[i] << ", "
         << sent_recovery_[i] << ")";
      report(os.str());
    }
  }
  if (algo_msgs != stats.algorithm_messages ||
      ctrl_msgs != stats.control_messages ||
      rec_msgs != stats.recovery_messages ||
      algo_cost != stats.algorithm_cost ||
      ctrl_cost != stats.control_cost ||
      rec_cost != stats.recovery_cost) {
    std::ostringstream os;
    os << "ledger conservation failed: per-edge sums give msgs=("
       << algo_msgs << ", " << ctrl_msgs << ", " << rec_msgs
       << ") cost=(" << algo_cost << ", " << ctrl_cost << ", "
       << rec_cost << ") but RunStats holds msgs=("
       << stats.algorithm_messages << ", " << stats.control_messages
       << ", " << stats.recovery_messages << ") cost=("
       << stats.algorithm_cost << ", " << stats.control_cost << ", "
       << stats.recovery_cost << ")";
    report(os.str());
  }
  if (stats.events != deliveries_seen_) {
    std::ostringstream os;
    os << "RunStats counts " << stats.events << " deliveries but "
       << deliveries_seen_ << " were observed (checker attached late?)";
    report(os.str());
  }
  if (net.idle()) {
    if (in_flight_ != 0) {
      std::ostringstream os;
      os << in_flight_
         << " sent message(s) never delivered on a quiescent network";
      report(os.str());
    }
    if (!dup_arrivals_.empty()) {
      std::ostringstream os;
      os << dup_arrivals_.size()
         << " phantom duplicate(s) never delivered on a quiescent "
            "network";
      report(os.str());
    }
    // The garble masking rule: invalid ARQ frames can only come from
    // recorded garbles on the same directed channel (a duplicate of a
    // garbled frame repeats the corruption, but the fate bands are
    // disjoint, so a garbled send is never also duplicated).
    for (std::size_t ch = 0; ch < arq_invalid_.size(); ++ch) {
      if (arq_invalid_[ch] > garbled_sent_[ch]) {
        std::ostringstream os;
        os << "channel " << ch << " delivered " << arq_invalid_[ch]
           << " invalid ARQ frame(s) but only " << garbled_sent_[ch]
           << " garble(s) were recorded on it";
        report(os.str());
      }
    }
    // Attempts that were dropped never become deliveries; surviving
    // duplicates add deliveries the tally never saw as sends.
    if (total_sends - drops_seen_ + dups_seen_ + self_schedules_seen_ !=
        deliveries_seen_) {
      std::ostringstream os;
      os << "event conservation failed: " << total_sends << " sends - "
         << drops_seen_ << " drops + " << dups_seen_ << " duplicates + "
         << self_schedules_seen_ << " self-schedules vs "
         << deliveries_seen_ << " deliveries at quiescence";
      report(os.str());
    }
  }
}

void DefaultInvariantChecker::check_arq(ProcessHost& host) {
  const Graph& g = host.graph();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    auto* arq = dynamic_cast<ArqHost*>(&host.process(v));
    if (arq == nullptr) {
      std::ostringstream os;
      os << "check_arq: node " << v << " is not wrapped by arq_factory";
      report(os.str());
      continue;
    }
    for (const auto [e, peer_node] : g.neighbors(v)) {
      const Edge& edge = g.edges()[static_cast<std::size_t>(e)];
      // The directed channel carrying DATA from the peer to v.
      const std::size_t ch = static_cast<std::size_t>(2 * e) +
                             (peer_node == edge.u ? 0 : 1);
      const std::int64_t expected = arq->next_expected_in(e);
      const std::int64_t delivered = arq->delivered_up(e);
      if (delivered != expected) {
        std::ostringstream os;
        os << "ARQ exactly-once broken at node " << v << " edge " << e
           << ": delivered " << delivered << " inner messages but next "
           << "expected seq is " << expected;
        report(os.str());
      }
      if (sized_ && expected != arq_expected_[ch]) {
        std::ostringstream os;
        os << "ARQ receiver state at node " << v << " edge " << e
           << " (next expected " << expected
           << ") diverges from the checker's frame replay ("
           << arq_expected_[ch] << ")";
        report(os.str());
      }
      if (auto* peer = dynamic_cast<ArqHost*>(&host.process(peer_node));
          peer != nullptr && delivered > peer->data_sent(e)) {
        std::ostringstream os;
        os << "ARQ delivered " << delivered << " inner messages at node "
           << v << " edge " << e << " but the peer only framed "
           << peer->data_sent(e);
        report(os.str());
      }
    }
  }
}

}  // namespace csca
