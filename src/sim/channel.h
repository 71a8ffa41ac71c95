// The send pipeline shared by every engine.
//
// The paper's cost model (§1.3) applies one rule to every message: a
// send on edge e is billed w(e) and arrives after a delay in [0, w(e)]
// on a FIFO channel. ChannelPipeline owns the per-directed-channel send
// state behind that rule — FIFO clamp, per-channel send counts, delay
// model, seed, keyed flag and the attached FaultInjector — and runs the
// fixed send sequence once for all four engines:
//
//   1. incidence check, then crashed-sender check;
//   2. count consumption and keyed fate;
//   3. drop or link-down at send time;
//   4. delay draw, checked against [min_delay(e), w(e)];
//   5. loss at arrival (link down, or receiver crashed);
//   6. FIFO clamp commit;
//   7. garble, then byzantine equivocate/forge;
//   8. duplicate draw, clamp and loss.
//
// Every attempt that passes step 1 is billed through RunStats::charge,
// whether or not it survives the channel: the sender paid for the
// transmission (docs/faults.md). With no injector attached only the
// incidence check, the count (keyed mode only), the draw and the clamp
// run.
//
// The caller gets a SendOutcome and keeps only what differs between
// engines: where a queued message goes (its own queue or a shard
// mailbox), lineage and sequence numbers, per-link counters and
// observer hooks. TimeWarp journals the two channel mutations (steps 2
// and 6) through a Journal policy so rollback can rewind them;
// SyncEngine calls send_pulse, which replaces the delay draw and clamp
// with pulse arrivals (p + w, duplicate p + 2w).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_injector.h"
#include "graph/graph.h"
#include "sim/delay.h"
#include "sim/message.h"
#include "util/require_lit.h"
#include "util/rng.h"

namespace csca {

/// Why a fault swallowed a send attempt (see InvariantObserver::on_drop).
enum class FaultDropReason {
  kChannelDrop,      // keyed per-send drop draw
  kLinkDown,         // edge inside an outage interval at send or arrival
  kReceiverCrashed,  // destination crash-stops before the arrival time
};

/// What the pipeline did with one send attempt.
struct SendOutcome {
  enum class Kind : std::uint8_t {
    kSilenced,  ///< the sender had crashed: nothing left, nothing billed
    kDropped,   ///< billed, then swallowed by a fault (see reason)
    kQueued,    ///< billed and on its way to `to`
  };
  Kind kind = Kind::kSilenced;
  FaultDropReason reason = FaultDropReason::kChannelDrop;
  FaultInjector::ByzantineFate byzantine = FaultInjector::ByzantineFate::kNone;
  bool garbled = false;
  /// A phantom copy of the queued message arrives at dup_arrival.
  /// Duplicates are channel noise: never billed, never clamp-committing.
  bool duplicate = false;
  std::size_t channel = 0;  ///< 2 * edge + direction
  NodeId to = kNoNode;
  double delay = 0;    ///< raw delay draw (queued, async domain only)
  double arrival = 0;  ///< FIFO-clamped arrival time (queued only)
  double dup_arrival = 0;

  bool billed() const { return kind != Kind::kSilenced; }
  bool queued() const { return kind == Kind::kQueued; }
};

/// Journal policy of engines that never rewind a send.
struct NoJournal {
  void count(std::size_t /*channel*/) {}
  void arrival(std::size_t /*channel*/, double /*previous*/) {}
};

class ChannelPipeline {
 public:
  /// Asynchronous engines: delays come from `delay`, drawn from a
  /// shared Rng(seed) stream or, in keyed mode, keyed by
  /// channel_delay_key(seed, channel, count).
  ChannelPipeline(const Graph& g, std::unique_ptr<DelayModel> delay,
                  std::uint64_t seed)
      : graph_(&g), delay_(std::move(delay)), rng_(seed), seed_(seed) {
    require(delay_ != nullptr, "delay model must not be null");
    last_arrival_.assign(static_cast<std::size_t>(2 * g.edge_count()), 0.0);
  }

  /// The pulse engine: arrivals are exact (send_pulse only).
  explicit ChannelPipeline(const Graph& g) : graph_(&g), rng_(0), seed_(0) {}

  const DelayModel& delay_model() const { return *delay_; }

  /// Heap bytes of the per-channel state: FIFO clamp and send counts.
  std::size_t memory_bytes() const {
    return last_arrival_.capacity() * sizeof(double) +
           channel_sends_.capacity() * sizeof(std::uint64_t);
  }

  /// Keyed delay draws (see Network::set_keyed_delays). Allocates the
  /// per-channel send counts.
  void set_keyed(bool on) {
    keyed_ = on;
    if (on) allocate_counts();
  }

  /// Attaches a fault injector (nullptr detaches; not owned). An
  /// inactive injector is discarded, so the fault-free path stays the
  /// only one that runs without a plan. The plan is re-validated
  /// against this graph: attaching it to another topology would
  /// mis-target every id-keyed event. Fates are keyed by the
  /// per-channel send counts, which are allocated here in unkeyed mode.
  void set_faults(const FaultInjector* f) {
    faults_ = (f != nullptr && f->active()) ? f : nullptr;
    if (faults_ == nullptr) return;
    faults_->plan().validate(*graph_);
    allocate_counts();
  }
  const FaultInjector* faults() const { return faults_; }

  /// Has v crash-stopped (or churned out) by t? Nodes crashed at 0
  /// never start, and a timer that would fire at or after its owner's
  /// crash dies with the node, so crashed nodes hold no pending timers.
  bool crashed(NodeId v, double t) const {
    return faults_ != nullptr && faults_->crashed(v, t);
  }

  /// Runs the send sequence for `from` sending m on e at time `now`,
  /// billing `ledger`. On kQueued, m is stamped (from, edge) and
  /// carries any corruption; the caller queues it (and a copy when
  /// `duplicate`). Forced inline: the fault-free path is every engine's
  /// per-send hot path, and an out-of-line call would return the
  /// outcome through memory.
  template <class Journal = NoJournal>
  [[gnu::always_inline]] SendOutcome send(NodeId from, EdgeId e, double now,
                                          Message& m, MsgClass cls,
                                          RunStats& ledger,
                                          Journal journal = {}) {
    const Edge& edge = graph_->edge(e);
    SendOutcome out = open(from, e, edge);
    if (faults_ != nullptr) [[unlikely]] {
      return send_faulty<false>(out, edge, from, e, now, m, cls, ledger,
                                journal);
    }
    const std::uint64_t key =
        keyed_ ? channel_delay_key(seed_, out.channel,
                                   take_count(out.channel, journal))
               : 0;
    out.delay = draw(e, edge.w, key);
    out.arrival = std::max(now + out.delay, last_arrival_[out.channel]);
    commit(out, journal);
    stamp(m, from, e);
    ledger.charge(cls, edge.w);
    out.kind = SendOutcome::Kind::kQueued;
    return out;
  }

  /// The same sequence in the pulse domain: a send at pulse p arrives
  /// at p + w(e), its duplicate at p + 2w(e) — one transmission later,
  /// the analogue of an independent second draw. Loss is decided at
  /// send time because arrival pulses are known exactly.
  SendOutcome send_pulse(NodeId from, EdgeId e, std::int64_t pulse,
                         Message& m, MsgClass cls, RunStats& ledger) {
    const Edge& edge = graph_->edge(e);
    SendOutcome out = open(from, e, edge);
    const auto now = static_cast<double>(pulse);
    if (faults_ != nullptr) {
      NoJournal journal;
      return send_faulty<true>(out, edge, from, e, now, m, cls, ledger,
                               journal);
    }
    out.arrival = now + static_cast<double>(edge.w);
    stamp(m, from, e);
    ledger.charge(cls, edge.w);
    out.kind = SendOutcome::Kind::kQueued;
    return out;
  }

  /// Rollback rewinds (TimeWarp): undo one consumed send count, and
  /// restore a channel's clamp to the value its journal recorded.
  void undo_count(std::size_t channel) { --channel_sends_[channel]; }
  void undo_arrival(std::size_t channel, double previous) {
    last_arrival_[channel] = previous;
  }

 private:
  void allocate_counts() {
    if (channel_sends_.empty()) {
      channel_sends_.assign(
          static_cast<std::size_t>(2 * graph_->edge_count()), 0);
    }
  }

  // Step 1a: a process may only send on its own incident edges.
  static SendOutcome open(NodeId from, EdgeId e, const Edge& edge) {
    require_lit(edge.u == from || edge.v == from,
                "process may only send on its own incident edges");
    SendOutcome out;
    out.channel = static_cast<std::size_t>(2 * e) + (from == edge.u ? 0 : 1);
    out.to = from == edge.u ? edge.v : edge.u;
    return out;
  }

  template <class Journal>
  std::uint64_t take_count(std::size_t channel, Journal& journal) {
    const std::uint64_t count = channel_sends_[channel]++;
    journal.count(channel);
    return count;
  }

  // Step 4: one delay draw, keyed by `key` in keyed mode. The
  // conservative windows of the parallel engines are sound only if
  // every draw respects the model's declared lookahead floor, and every
  // engine enforces it so they all accept the same models. One
  // check-first require_lit covers both bounds, so a send allocates
  // nothing for it.
  [[gnu::always_inline]] double draw(EdgeId e, Weight w,
                                     std::uint64_t key) {
    const double d =
        keyed_ ? delay_->delay_keyed(e, w, key) : delay_->delay_on(e, w, rng_);
    require_lit(d >= 0.0 && d <= static_cast<double>(w) &&
                    d >= delay_->min_delay(e, w),
                "delay model drew outside [min_delay(e), w(e)] or below 0");
    return d;
  }

  // Step 6: only messages that will actually be delivered move the
  // channel's FIFO clamp.
  template <class Journal>
  void commit(const SendOutcome& out, Journal& journal) {
    journal.arrival(out.channel, last_arrival_[out.channel]);
    last_arrival_[out.channel] = out.arrival;
  }

  static void stamp(Message& m, NodeId from, EdgeId e) {
    m.from = from;
    m.edge = e;
  }

  // Steps 5 and 8: lost in transit when the link goes down before the
  // message lands or the receiver has crash-stopped by then.
  bool lost(EdgeId e, NodeId to, double t) const {
    return faults_->link_down(e, t) || faults_->crashed(to, t);
  }

  template <bool kPulse, class Journal>
  [[gnu::noinline]] SendOutcome send_faulty(SendOutcome out, const Edge& edge,
                                            NodeId from, EdgeId e, double now,
                                            Message& m, MsgClass cls,
                                            RunStats& ledger,
                                            Journal& journal) {
    // 1b. Nothing a crashed node emits at its crash instant may leave.
    if (faults_->crashed(from, now)) return out;
    // 2. Fates are keyed by the same per-channel count as keyed delay
    // draws, so every engine draws the identical fate for the identical
    // logical send.
    const std::uint64_t count = take_count(out.channel, journal);
    ledger.charge(cls, edge.w);
    const FaultInjector::SendFate fate =
        faults_->send_fate(out.channel, count);
    out.kind = SendOutcome::Kind::kDropped;
    // 3.
    if (fate.drop || faults_->link_down(e, now)) {
      out.reason = fate.drop ? FaultDropReason::kChannelDrop
                             : FaultDropReason::kLinkDown;
      return out;
    }
    // 4.
    const auto w = static_cast<double>(edge.w);
    double arrival = now + w;
    if constexpr (!kPulse) {
      out.delay = draw(e, edge.w,
                       keyed_ ? channel_delay_key(seed_, out.channel, count)
                              : 0);
      arrival = std::max(now + out.delay, last_arrival_[out.channel]);
    }
    // 5.
    if (lost(e, out.to, arrival)) {
      out.reason = faults_->link_down(e, arrival)
                       ? FaultDropReason::kLinkDown
                       : FaultDropReason::kReceiverCrashed;
      return out;
    }
    out.arrival = arrival;
    // 6.
    if constexpr (!kPulse) commit(out, journal);
    stamp(m, from, e);
    // 7. Garbling corrupts the delivered copy only: the charge and the
    // clamp are those of a healthy-looking send. Byzantine corruption
    // rides its own keyed stream and lands before the duplicate splits
    // off, so a duplicated equivocation delivers two identical copies.
    if (fate.garble) {
      faults_->garble(out.channel, count, m);
      out.garbled = true;
    }
    if (faults_->byzantine(from)) {
      out.byzantine = faults_->byzantine_fate(out.channel, count);
      if (out.byzantine == FaultInjector::ByzantineFate::kEquivocate) {
        faults_->equivocate(out.channel, count, m);
      } else if (out.byzantine == FaultInjector::ByzantineFate::kForge) {
        faults_->forge(out.channel, count, m);
      }
    }
    // 8. The phantom copy gets its own keyed draw from the fault stream
    // and is clamped behind the original without committing the clamp.
    if (fate.duplicate) {
      double arr2 = now + 2 * w;
      if constexpr (!kPulse) {
        const double d2 = draw(
            e, edge.w, keyed_ ? faults_->dup_delay_key(out.channel, count) : 0);
        arr2 = std::max(now + d2, last_arrival_[out.channel]);
      }
      out.duplicate = !lost(e, out.to, arr2);
      out.dup_arrival = arr2;
    }
    out.kind = SendOutcome::Kind::kQueued;
    return out;
  }

  const Graph* graph_;
  std::unique_ptr<DelayModel> delay_;  // null in the pulse domain
  Rng rng_;                            // unkeyed draws, in send order
  std::uint64_t seed_;
  bool keyed_ = false;
  const FaultInjector* faults_ = nullptr;
  // Per directed channel (2 * edge + direction). The clamp exists in
  // the async domain only; the counts once keyed mode or a plan needs
  // them.
  std::vector<double> last_arrival_;
  std::vector<std::uint64_t> channel_sends_;
};

}  // namespace csca
