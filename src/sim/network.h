// The asynchronous message-passing engine.
//
// A Network hosts one Process per node of a weighted Graph and delivers
// messages along edges with delays drawn from a DelayModel, clamped so
// that each directed edge is a FIFO channel (the standard static-network
// assumption; GHS and the synchronizers rely on it). Sending a message on
// edge e adds w(e) to the communication-cost ledger — the paper's
// cost-sensitive communication measure — and the run's completion time is
// the cost-sensitive time measure when the delay model is ExactDelay.
//
// Context / Process / the engine interfaces live in sim/engine.h; the
// Network is the sequential reference implementation: the EngineBackend
// for its processes, and the writer of the ProcessHost result side the
// analysis layer reads.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "graph/graph.h"
#include "sim/channel.h"
#include "sim/delay.h"
#include "sim/engine.h"
#include "sim/event_heap.h"
#include "sim/message.h"
#include "util/require_lit.h"
#include "util/rng.h"

namespace csca {

class Network;

/// Passive hook interface for the protocol analysis layer (src/check/).
/// When attached via Network::set_observer, the engine invokes one hook
/// per state transition; with no observer attached each hook site costs
/// a single predicted-not-taken branch. Hooks fire *after* the
/// transition is applied (counters updated, event queued, finish time
/// stamped), so checkers can cross-validate the engine's bookkeeping
/// against their own. See check/invariants.h for the default checker.
/// Observers are a sequential-engine feature: they receive the Network
/// mid-step, which has no meaning across the parallel engine's shards.
class InvariantObserver {
 public:
  virtual ~InvariantObserver() = default;

  /// A send by `from` on edge e was queued. `delay` is the raw
  /// DelayModel output, `arrival` the FIFO-clamped delivery time.
  virtual void on_send(const Network&, NodeId /*from*/, EdgeId /*e*/,
                       MsgClass /*cls*/, double /*delay*/,
                       double /*arrival*/) {}

  /// A self-delivery by v was queued `delay` time units ahead.
  virtual void on_self_schedule(const Network&, NodeId /*v*/,
                                double /*delay*/) {}

  /// An event is about to be handed to node `to` (now() == t). Fires
  /// before the process handler runs.
  virtual void on_deliver(const Network&, NodeId /*to*/,
                          const Message& /*m*/, double /*t*/) {}

  /// Node v called Context::finish() for the first time, at time t.
  virtual void on_finish(const Network&, NodeId /*v*/, double /*t*/) {}

  /// A send attempt by `from` on edge e was swallowed by a fault. The
  /// ledger charges the attempt (transmission cost is paid whether or
  /// not the message survives the channel) but nothing was queued and
  /// nothing will be delivered for it. Only fires with faults attached.
  virtual void on_drop(const Network&, NodeId /*from*/, EdgeId /*e*/,
                       MsgClass /*cls*/, FaultDropReason /*reason*/) {}

  /// The channel duplicated a send by `from` on edge e: a phantom copy
  /// was queued to arrive at `arrival`. Duplicates are channel noise,
  /// not protocol sends — they are *not* charged to the ledger or the
  /// per-edge counters. Only fires with faults attached.
  virtual void on_duplicate(const Network&, NodeId /*from*/, EdgeId /*e*/,
                            double /*arrival*/) {}

  /// A send by `from` on edge e was queued *corrupted* (one keyed
  /// payload word XORed — see FaultInjector::garble) and will arrive at
  /// `arrival`. Fires right after the on_send hook for the same send;
  /// the ledger charged the attempt normally. Only fires with faults
  /// attached.
  virtual void on_garble(const Network&, NodeId /*from*/, EdgeId /*e*/,
                         double /*arrival*/) {}

  /// A byzantine sender corrupted its own send on edge e before it hit
  /// the wire: `forged` distinguishes a checksum-patched forgery from
  /// an equivocation (channel-keyed conflicting payload). Fires right
  /// after the on_send hook for the same send; the ledger charged the
  /// attempt normally. Only fires with faults attached. The containment
  /// checker (check/byzantine_check.h) asserts `from` stays inside the
  /// plan's configured corruption set.
  virtual void on_byzantine(const Network&, NodeId /*from*/, EdgeId /*e*/,
                            bool /*forged*/, double /*arrival*/) {}
};

/// Simulation host: graph + processes + event queue + cost ledger.
class Network : public ProcessHost, private EngineBackend {
 public:
  using ProcessFactory = csca::ProcessFactory;

  /// Builds one process per node via factory. The delay model services
  /// every edge; seed drives all its randomness.
  Network(const Graph& g, const ProcessFactory& factory,
          std::unique_ptr<DelayModel> delay, std::uint64_t seed = 1);

  /// Hosts a pre-built (typically pooled — see sim/process_store.h)
  /// store of g.node_count() processes. The million-node entry point:
  /// no per-node allocation happens inside the engine.
  Network(const Graph& g, ProcessStore store,
          std::unique_ptr<DelayModel> delay, std::uint64_t seed = 1);

  /// Switches delay draws to the keyed entry point
  /// (DelayModel::delay_keyed with channel_delay_key(seed, channel,
  /// count)): each draw becomes a pure function of the run seed, the
  /// directed channel, and that channel's send count, independent of
  /// the global interleaving of sends. This is the discipline the
  /// sharded engine always uses, so a keyed Network is its sequential
  /// reference for random delay models. Default off: the shared-stream
  /// discipline below is pinned by the golden-ledger test and stays the
  /// behaviour of every existing single-threaded experiment. Must be
  /// called before the first step.
  void set_keyed_delays(bool on);

  /// Runs to quiescence (empty event queue) or until the next pending
  /// event lies beyond max_time. Returns the accumulated ledger. May be
  /// called again to resume a run cut short by max_time.
  ///
  /// Resume clock contract: events with arrival <= max_time are
  /// delivered (inclusive); every later event stays queued, untouched.
  /// When the run is cut short, now() is advanced to max_time — the
  /// budget slice consumes the whole interval — so interleaved budget
  /// slices observe a monotone clock and a resumed run delivers the
  /// exact same event sequence as an unbudgeted run would have. After
  /// quiescence, now() is the time of the last delivered event.
  RunStats run(double max_time = std::numeric_limits<double>::infinity());

  /// Delivers the single next event (calling on_start hooks first on the
  /// first step). Returns false when the queue is empty. Together with
  /// stats(), lets a driver interleave two protocol executions under a
  /// cost budget, the mechanism behind the paper's hybrid algorithms.
  bool step();

  /// True when no deliveries are pending.
  bool idle() const { return queue_.empty(); }

  /// The simulated clock (see run() for the budget-slice contract).
  double now() const { return now_; }

  /// Peak number of simultaneously pending deliveries so far.
  std::size_t peak_queue_depth() const { return queue_.peak_size(); }

  /// Heap bytes of the engine's per-edge and per-node ledgers: the
  /// per-class edge counters allocated so far and the finish times
  /// (ProcessHost::ledger_bytes), plus the send pipeline's FIFO clamp
  /// and channel counts. The engine term of the scale table's bytes/node
  /// accounting (docs/scale.md); the event queue is not counted.
  std::size_t memory_bytes() const {
    return ledger_bytes() + pipeline_.memory_bytes();
  }

  /// Attaches a passive observer (nullptr detaches). The observer is
  /// not owned and must outlive the network or be detached first; for
  /// complete bookkeeping it must be attached before the first step.
  void set_observer(InvariantObserver* obs) { observer_ = obs; }
  InvariantObserver* observer() const { return observer_; }

  /// Attaches a fault injector (nullptr detaches; not owned, must
  /// outlive the network). All fault decisions happen at send /
  /// schedule time — see fault/fault_injector.h — so the delivery loop
  /// is untouched. An *inactive* injector (zero rates, no events) is
  /// discarded here, keeping the no-faults hot path byte-identical
  /// whether or not a plan was attached. Must be called before the
  /// first step.
  void set_faults(const FaultInjector* f);
  const FaultInjector* faults() const { return pipeline_.faults(); }

  /// Recovery-billing mode: every send is billed to MsgClass::kRecovery
  /// regardless of the class named at the send site. This is how a
  /// re-executed protocol (control/restabilize.h) charges its entire
  /// traffic to the recovery side of the ledger without its send sites
  /// — whose explicit classes the COST-1 analyzer rule pins — knowing
  /// they are running inside a recovery pass. Must be set before the
  /// first step.
  void set_recovery_billing(bool on) {
    require(!started_,
            "recovery billing must be chosen before the first step");
    recovery_billing_ = on;
  }
  bool recovery_billing() const { return recovery_billing_; }

 private:
  // Pending deliveries are pooled Messages keyed by (arrival, send
  // sequence) — the seq tie-break makes the order total, so delivery
  // order is deterministic FIFO. The 32-bit sequence bounds a single
  // network at 2^32 - 1 sends+self-schedules over its lifetime
  // (enforced in push). Arrival time and destination are not stored in
  // the node: the time lives in the heap key and the destination is
  // recomputed from the stamped from/edge metadata, keeping each pooled
  // node to one cache line.

  double engine_now() const override { return now_; }
  const Graph& engine_graph() const override { return *graph_; }
  void engine_send(NodeId from, EdgeId e, Message m, MsgClass cls) override;
  void push(double t, Message&& m) {
    require(seq_ != UINT32_MAX, "event sequence space exhausted");
    queue_.push(HeapKey{t, seq_++}, std::move(m));
  }
  // Fires on_send, then on_garble / on_byzantine for a queued send.
  void notify_send(NodeId from, EdgeId e, MsgClass cls,
                   const SendOutcome& out);
  void engine_schedule_self(NodeId v, double delay, Message m) override;
  void engine_finish(NodeId v) override;
  void ensure_started();
  // Pops and delivers the event whose key the caller just peeked.
  void deliver(HeapKey key);

  ChannelPipeline pipeline_;
  double now_ = 0;
  std::uint32_t seq_ = 0;
  EventHeap<Message> queue_;
  InvariantObserver* observer_ = nullptr;
  bool started_ = false;
  bool recovery_billing_ = false;
};

}  // namespace csca
