// Engine interfaces shared by the sequential Network and the two
// parallel engines (par/shard_engine.h, par/timewarp_engine.h).
//
// Protocols never see a concrete engine. They see two narrow surfaces:
//
//   * EngineBackend — the send side. A Context forwards a process's
//     send / schedule_self / finish calls to whichever backend created
//     it, so the same Process implementation runs unmodified on any
//     engine (including one backend per shard inside the parallel
//     engines, each with its own clock).
//   * ProcessHost — the result side. Everything the analysis layer
//     reads after (or between) runs: the graph, the cost ledger,
//     per-node processes and finish times, per-link message counts.
//     It is one concrete class that owns all of that state; every
//     engine derives from it and writes into it, so check/ digests
//     written against ProcessHost validate all engines bit-for-bit.
//
// Network implements EngineBackend itself; ShardEngine and
// TimeWarpEngine own one internal EngineBackend per shard.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "sim/message.h"
#include "sim/process_store.h"
#include "util/require_lit.h"

namespace csca {

class EngineBackend;

/// The only window a protocol has onto the world: its own id, the local
/// clock, the topology, and sends over incident edges. Handed to Process
/// hooks by the engine; never stored by protocols beyond the call.
class Context {
 public:
  NodeId self() const { return self_; }
  double now() const;
  const Graph& graph() const;

  std::span<const EdgeId> incident() const {
    return graph().incident(self_);
  }
  /// Incident arcs (edge id, other endpoint) straight out of the CSR
  /// arrays — the zero-copy form of the incident()/neighbor() pair for
  /// per-hop loops (see graph/graph.h).
  NeighborView neighbors() const { return graph().neighbors(self_); }
  NodeId neighbor(EdgeId e) const { return graph().other(e, self_); }
  Weight edge_weight(EdgeId e) const { return graph().weight(e); }

  /// Sends m to the other endpoint of incident edge e. Costs w(e) in the
  /// ledger class cls. The class is deliberately not defaulted: the
  /// paper's analyses split every measure into algorithm vs control
  /// cost, so each send site must say which side of the ledger it bills
  /// (COST-1 in docs/analysis.md).
  void send(EdgeId e, Message m, MsgClass cls);

  /// Schedules m for delivery to this node itself after `delay` time
  /// units (>= 0). Local computation is free in the model, so this costs
  /// nothing in the ledger; it exists so protocols can defer work out of
  /// the current handler (e.g. the hybrid arbiter's resume).
  void schedule_self(double delay, Message m);

  /// Marks this node as locally finished (used for termination checks and
  /// per-node completion times). Idempotent.
  void finish();

 private:
  friend class EngineBackend;
  Context(EngineBackend& backend, NodeId self)
      : backend_(&backend), self_(self) {}
  EngineBackend* backend_;
  NodeId self_;
};

/// One per-node protocol instance. Implementations keep all their state as
/// members and interact exclusively through the Context passed to hooks.
class Process {
 public:
  virtual ~Process() = default;

  /// Invoked once at time 0, before any delivery.
  virtual void on_start(Context&) {}

  /// Invoked for each delivered message.
  virtual void on_message(Context&, const Message& m) = 0;

  /// Deep copy of the protocol state, for engines that need to undo
  /// deliveries (the optimistic backend in par/timewarp_engine.h saves
  /// before every speculative delivery and restores on rollback). The
  /// default returns null — "not supported" — and the optimistic engine
  /// refuses to host such a process; conservative engines never call
  /// it. Concrete protocols opt in with a two-line override pair
  /// (copy-construct / copy-assign).
  virtual std::unique_ptr<Process> save_state() const { return nullptr; }

  /// Restores this process to the state captured by save_state().
  /// `saved` is a value returned from save_state() on this same object.
  virtual void restore_state(const Process& saved) {
    (void)saved;
    require(false, "process does not implement restore_state");
  }
};

/// Builds the process for node v. Engines call it once per node.
using ProcessFactory = std::function<std::unique_ptr<Process>(NodeId)>;

/// The send side of an engine: what a Context needs to service protocol
/// calls. One instance per independent event loop — the sequential
/// Network is one backend, the sharded engine is one backend per shard
/// (each shard has its own clock and queue, so `engine_now` is a
/// per-shard question there).
class EngineBackend {
 public:
  virtual ~EngineBackend() = default;

 protected:
  /// Contexts are engine-internal; engines mint them per hook call.
  Context make_context(NodeId v) { return Context(*this, v); }

 private:
  friend class Context;
  virtual double engine_now() const = 0;
  virtual const Graph& engine_graph() const = 0;
  virtual void engine_send(NodeId from, EdgeId e, Message m,
                           MsgClass cls) = 0;
  virtual void engine_schedule_self(NodeId v, double delay, Message m) = 0;
  virtual void engine_finish(NodeId v) = 0;
};

inline double Context::now() const { return backend_->engine_now(); }
inline const Graph& Context::graph() const {
  return backend_->engine_graph();
}
inline void Context::send(EdgeId e, Message m, MsgClass cls) {
  backend_->engine_send(self_, e, std::move(m), cls);
}
inline void Context::schedule_self(double delay, Message m) {
  backend_->engine_schedule_self(self_, delay, std::move(m));
}
inline void Context::finish() { backend_->engine_finish(self_); }

/// The result side of every engine: post-run (and, for the sequential
/// engine, mid-run) access to everything the analysis layer measures.
/// Engines derive from it and write its state directly. Each accessor
/// checks its id, testing before it builds a message (the invariant
/// checker reads them per node and per edge). All methods are
/// single-threaded reads; the parallel engines' workers are quiescent
/// whenever a ProcessHost is handed out.
class ProcessHost {
 public:
  using ProcessStore = PooledStore<Process>;

  virtual ~ProcessHost() = default;
  ProcessHost(const ProcessHost&) = delete;
  ProcessHost& operator=(const ProcessHost&) = delete;

  const Graph& graph() const { return *graph_; }

  /// Ledger accumulated so far (final after the run completes).
  const RunStats& stats() const { return stats_; }

  /// Post-run access to protocol state, e.g. a computed tree or output.
  Process& process(NodeId v) {
    check_node(v);
    return processes_[v];
  }

  template <typename T>
  T& process_as(NodeId v) {
    auto* p = dynamic_cast<T*>(&process(v));
    require_lit(p != nullptr, "process has unexpected concrete type");
    return *p;
  }

  /// Bytes of pooled per-node protocol state (see docs/scale.md).
  std::size_t process_state_bytes() const {
    return processes_.state_bytes();
  }

  bool finished(NodeId v) const { return finish_time(v) >= 0; }
  /// Time of v's first Context::finish() call; -1 while unfinished.
  double finish_time(NodeId v) const {
    check_node(v);
    return finish_time_[static_cast<std::size_t>(v)];
  }
  /// True iff every node called Context::finish().
  bool all_finished() const;
  /// Latest finish() timestamp across nodes; requires all_finished().
  double last_finish_time() const;

  /// Messages sent over edge e so far (both directions, all classes).
  /// Lets analyses measure per-link load — e.g. the congestion factor in
  /// clock synchronizer gamma*, which the paper bounds by the tree
  /// edge-cover's O(log n) sharing property.
  std::int64_t edge_message_count(EdgeId e) const;

  /// Messages of one ledger class sent over edge e. The paper's
  /// congestion analyses (gamma* sharing) reason about the protocol's
  /// own traffic, so per-link measures must not be polluted by
  /// transformer overhead running on the same network.
  std::int64_t edge_message_count(EdgeId e, MsgClass cls) const;

  /// max over edges of edge_message_count.
  std::int64_t max_edge_message_count() const;

  /// max over edges of edge_message_count(e, cls).
  std::int64_t max_edge_message_count(MsgClass cls) const;

 protected:
  /// One count array per ledger class.
  using ClassCounts = std::array<std::vector<std::int64_t>, kMsgClassCount>;

  /// Takes a store of exactly g.node_count() processes.
  ProcessHost(const Graph& g, ProcessStore store);

  /// The per-edge counters of class cls, allocated (all zero) the first
  /// time the class is billed; until then a class reads as all zeros.
  std::vector<std::int64_t>& edge_counts(MsgClass cls) {
    auto& counts = edge_messages_[class_index(cls)];
    if (counts.empty()) [[unlikely]] {
      counts.assign(static_cast<std::size_t>(graph_->edge_count()), 0);
    }
    return counts;
  }

  /// Stamps v's first Context::finish() at time t; false when v had
  /// already finished (finish is idempotent).
  bool stamp_finish(NodeId v, double t) {
    double& at = finish_time_[static_cast<std::size_t>(v)];
    if (at >= 0) return false;
    at = t;
    return true;
  }

  /// Turns per-directed-channel tallies (index 2 * edge + direction)
  /// into the per-edge counters, taking their storage. The parallel
  /// engines count per channel during the run, because each channel has
  /// one sender shard (race-free writes, and TimeWarp rewinds them on
  /// rollback); their serial merge after the rounds folds them in here,
  /// once, while their per-edge counters are still empty.
  void fold_channel_counts(ClassCounts& tallies);

  /// Heap bytes of the finish times and of the per-class edge counters
  /// allocated so far: the ledger term of Network::memory_bytes.
  std::size_t ledger_bytes() const;

  const Graph* graph_;
  ProcessStore processes_;
  // Written by the node's engine (its owner shard on the parallel
  // engines); -1 until the node finishes.
  std::vector<double> finish_time_;
  RunStats stats_;

 private:
  void check_node(NodeId v) const {
    require_lit(v >= 0 && v < graph_->node_count(), "node id out of range");
  }
  void check_edge(EdgeId e) const {
    require_lit(e >= 0 && e < graph_->edge_count(), "edge id out of range");
  }

  ClassCounts edge_messages_;  // per-link message counts, [class][edge]
};

}  // namespace csca
