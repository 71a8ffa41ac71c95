// The weighted synchronous engine (§4.1's simulation target).
//
// In a weighted synchronous network the delay on edge e is *exactly* w(e).
// This engine runs a SyncProcess per node under those semantics. It serves
// three purposes:
//   1. reference executions that synchronizer-driven asynchronous runs are
//      validated against (same outputs required),
//   2. the measurement of c_pi and t_pi, the synchronous protocol's own
//      complexity, which Lemma 4.8's amortized overheads are defined
//      against,
//   3. a home for synchronous algorithms (SPT_synch's Bellman-Ford).
//
// The engine is event driven: empty pulses are skipped, so running a
// protocol for D = n * W pulses costs only the work of its events. A
// process that needs to act at a pulse with no arrivals schedules a wakeup.
#pragma once

#include <functional>
#include <memory>

#include "graph/graph.h"
#include "sim/channel.h"
#include "sim/event_heap.h"
#include "sim/message.h"
#include "sim/process_store.h"
#include "sim/sync_process.h"
#include "util/require_lit.h"

namespace csca {

class SyncEngine {
 public:
  using ProcessFactory = std::function<std::unique_ptr<SyncProcess>(NodeId)>;
  using ProcessStore = PooledStore<SyncProcess>;

  /// If enforce_in_synch, sends on an edge of weight w are only legal at
  /// pulses divisible by w (Def. 4.2); a violating protocol throws.
  SyncEngine(const Graph& g, const ProcessFactory& factory,
             bool enforce_in_synch = false);

  /// Hosts a pre-built (typically pooled) store of g.node_count()
  /// processes; no per-node allocation inside the engine.
  SyncEngine(const Graph& g, ProcessStore store,
             bool enforce_in_synch = false);

  /// Runs until quiescence or until the next pending event lies beyond
  /// max_pulse. completion_time in the returned stats is the last pulse
  /// at which anything happened.
  ///
  /// Same resume contract as Network::run: events at pulses <= max_pulse
  /// are processed (inclusive); an over-budget event stays queued and is
  /// processed by a later run() call, so budgeted slices compose into
  /// exactly the unbudgeted execution. The hybrid drivers rely on this
  /// to charge a synchronous contestant one pulse budget at a time.
  RunStats run(std::int64_t max_pulse = (std::int64_t{1} << 56));

  /// True when no events are pending.
  bool idle() const { return queue_.empty(); }

  /// Ledger accumulated so far (final once idle()).
  const RunStats& stats() const { return stats_; }

  /// Peak number of simultaneously pending events so far.
  std::size_t peak_queue_depth() const { return queue_.peak_size(); }

  SyncProcess& process(NodeId v) {
    graph_->check_node(v);
    return processes_.at(v);
  }

  /// Bytes of pooled per-node protocol state (see docs/scale.md).
  std::size_t process_state_bytes() const {
    return processes_.state_bytes();
  }

  template <typename T>
  T& process_as(NodeId v) {
    auto* p = dynamic_cast<T*>(&process(v));
    require(p != nullptr, "process has unexpected concrete type");
    return *p;
  }

  const Graph& graph() const { return *graph_; }
  bool all_finished() const;

  /// Attaches a fault injector (nullptr detaches; not owned). Same
  /// contract as Network::set_faults: decisions at send/wakeup time in
  /// the pulse domain (a send at pulse p arrives at p + w, a duplicate
  /// at p + 2w), inactive injectors are discarded, and it must be
  /// called before the first step.
  void set_faults(const FaultInjector* f);

 private:
  class EngineContext final : public SyncContext {
   public:
    EngineContext(SyncEngine& eng, NodeId self) : eng_(&eng), self_(self) {}
    NodeId self() const override { return self_; }
    const Graph& graph() const override { return *eng_->graph_; }
    std::int64_t pulse() const override { return eng_->pulse_; }
    void send(EdgeId e, Message m, MsgClass cls) override {
      eng_->do_send(self_, e, std::move(m), cls);
    }
    void schedule_wakeup(std::int64_t at_pulse) override {
      eng_->do_wakeup(self_, at_pulse);
    }
    void finish() override { eng_->do_finish(self_); }

   private:
    SyncEngine* eng_;
    NodeId self_;
  };

  // Events are pooled Messages; everything else lives in the heap key:
  // t = pulse (exact for pulses below 2^53), aux = kind bit (0 =
  // message delivery, 1 = wakeup, delivered after messages) then a
  // 31-bit sequence — so messages precede wakeups at the same pulse and
  // the seq tie-break makes the order total/deterministic. Both bounds
  // are enforced where events are queued. The destination is
  // recomputed from the stamped from/edge metadata on delivery.
  static HeapKey event_key(std::int64_t pulse, int kind,
                           std::uint32_t seq) {
    return HeapKey{static_cast<double>(pulse),
                   (static_cast<std::uint32_t>(kind) << 31) | seq};
  }

  // Pulses must stay below 2^53 so their double image in the heap key
  // is exact, and the 31-bit sequence bounds one engine at 2^31 - 1
  // queued events over its lifetime.
  void check_event_bounds(std::int64_t pulse) const {
    require_lit(pulse < (std::int64_t{1} << 53),
                "pulse too large for event key");
    require_lit(seq_ < (std::uint32_t{1} << 31),
                "event sequence space exhausted");
  }

  void do_send(NodeId from, EdgeId e, Message m, MsgClass cls);
  void do_wakeup(NodeId v, std::int64_t at_pulse);
  void do_finish(NodeId v);
  void ensure_started();

  const Graph* graph_;
  ProcessStore processes_;
  ChannelPipeline pipeline_;
  bool enforce_in_synch_;
  std::int64_t pulse_ = 0;
  std::uint32_t seq_ = 0;
  EventHeap<Message> queue_;
  std::vector<char> finished_;
  RunStats stats_;
  bool started_ = false;
};

}  // namespace csca
