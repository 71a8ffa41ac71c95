#include "par/shard_engine.h"

#include <algorithm>
#include <deque>

#include "par/round_team.h"
#include "util/require_lit.h"

namespace csca {

// ---------------------------------------------------------------------------
// Shard: one event loop. Owns a subset of nodes, their pending events,
// and the lineage records of everything it has delivered. Implements
// EngineBackend so protocol Contexts route sends straight here.
// ---------------------------------------------------------------------------

struct ShardEngine::Shard final : public EngineBackend {
  Shard(ShardEngine* engine, int shard_id) : eng(engine), id(shard_id) {}

  /// A pending event: arrival time, birth certificate (parent handler's
  /// lineage + send index within that handler), and the arena slot
  /// holding the message body.
  struct Entry {
    double t = 0;
    const Lineage* parent = nullptr;
    std::uint32_t send_index = 0;
    std::uint32_t slot = 0;
  };

  // -- ordering ------------------------------------------------------------

  /// Sequential-order comparison of two handlers by genealogy: earlier
  /// delivery time first; at equal times, recurse on the parents and
  /// fall back to the send index within a shared parent. on_start
  /// markers (t = -1, null parent) compare by node id, matching the
  /// sequential engine's ascending start order. Total order; the walk
  /// terminates because lineage chains are finite and (parent,
  /// send_index) is unique per record.
  static bool lineage_before(const Lineage* a, const Lineage* b) {
    while (true) {
      if (a == b) return false;
      if (a->t != b->t) return a->t < b->t;
      if (a->parent == nullptr || b->parent == nullptr) {
        // Markers carry t = -1 and deliveries t >= 0, so equal times
        // with a null parent on either side means both are markers.
        return a->origin < b->origin;
      }
      if (a->parent == b->parent) return a->send_index < b->send_index;
      a = a->parent;
      b = b->parent;
    }
  }

  /// Pending-event order: time, then birth order — the parent handlers'
  /// sequential order, then the send index for siblings. Equals the
  /// sequential engine's (t, seq) order restricted to events that are
  /// ever simultaneously pending.
  static bool entry_before(const Entry& x, const Entry& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.parent == y.parent) return x.send_index < y.send_index;
    return lineage_before(x.parent, y.parent);
  }

  /// Heap comparator: std:: heaps are max-heaps under their comparator,
  /// so invert to keep the sequentially-first entry on top.
  static bool entry_after(const Entry& x, const Entry& y) {
    return entry_before(y, x);
  }

  // -- event queue ---------------------------------------------------------

  void push_local(double t, const Lineage* parent, std::uint32_t send_index,
                  NodeId to, Message&& m) {
    std::uint32_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
      slots[slot] = std::move(m);
      slot_to[slot] = to;
    } else {
      slot = static_cast<std::uint32_t>(slots.size());
      slots.push_back(std::move(m));
      slot_to.push_back(to);
    }
    heap.push_back(Entry{t, parent, send_index, slot});
    std::push_heap(heap.begin(), heap.end(), entry_after);
  }

  Entry pop_top() {
    std::pop_heap(heap.begin(), heap.end(), entry_after);
    Entry top = heap.back();
    heap.pop_back();
    return top;
  }

  double next_time() const { return heap.empty() ? kInf : heap.front().t; }

  // -- lineage -------------------------------------------------------------

  /// Lazily publishes the current handler's lineage record: only
  /// handlers that send anything allocate one. The deque arena keeps
  /// records pointer-stable for the lifetime of the run; cross-shard
  /// readers reach them through the channel's release/acquire edge.
  const Lineage* handler_lineage() {
    if (cur_lineage == nullptr) {
      if (cur_is_start) {
        arena.push_back(Lineage{-1.0, nullptr, 0, cur_node});
      } else {
        arena.push_back(Lineage{now, cur_parent, cur_send_index, cur_node});
      }
      cur_lineage = &arena.back();
    }
    return cur_lineage;
  }

  // -- EngineBackend -------------------------------------------------------

  double engine_now() const override { return now; }
  const Graph& engine_graph() const override { return *eng->graph_; }

  void engine_send(NodeId from, EdgeId e, Message m, MsgClass cls) override {
    const SendOutcome out = eng->pipeline_.send(from, e, now, m, cls, stats);
    if (!out.billed()) return;
    ++eng->channel_messages_[class_index(cls)][out.channel];
    if (!out.queued()) return;
    // Dropped sends consume no send index and a surviving duplicate the
    // next one, matching the keyed Network's sequence numbers.
    const Lineage* lin = handler_lineage();
    if (out.duplicate) {
      route(out.to, out.arrival, lin, Message(m));
      route(out.to, out.dup_arrival, lin, std::move(m));
    } else {
      route(out.to, out.arrival, lin, std::move(m));
    }
  }

  void route(NodeId to, double t, const Lineage* lin, Message&& m) {
    require_lit(sends_in_handler != UINT32_MAX, "send index space exhausted");
    const std::uint32_t idx = sends_in_handler++;
    const int dest = eng->part_.shard(to);
    if (dest == id) {
      push_local(t, lin, idx, to, std::move(m));
    } else {
      outbox[static_cast<std::size_t>(dest)].push_back(
          CrossMsg{t, lin, idx, to, std::move(m)});
    }
  }

  void engine_schedule_self(NodeId v, double delay, Message m) override {
    require_lit(delay >= 0.0, "self-delivery delay must be non-negative");
    if (eng->pipeline_.crashed(v, now + delay)) return;
    m.from = v;
    m.edge = kNoEdge;
    const Lineage* lin = handler_lineage();
    require_lit(sends_in_handler != UINT32_MAX, "send index space exhausted");
    const std::uint32_t idx = sends_in_handler++;
    // v is the node currently executing here, so its shard is this one.
    push_local(now + delay, lin, idx, v, std::move(m));
  }

  void engine_finish(NodeId v) override { eng->stamp_finish(v, now); }

  // -- round phases (each runs on the team member that owns the shard) ------

  void start() {
    now = 0;
    cur_is_start = true;
    for (NodeId v : owned) {
      // A node crashed at time 0 never participates at all.
      if (eng->pipeline_.crashed(v, 0.0)) continue;
      cur_node = v;
      cur_lineage = nullptr;
      sends_in_handler = 0;
      Context ctx = make_context(v);
      eng->processes_.at(v).on_start(ctx);
    }
    cur_is_start = false;
  }

  /// Coalesced mailbox flush, run at the end of every phase: each
  /// non-empty per-destination mailbox travels as one SPSC push, and the
  /// next buffer is recycled from the reverse channel when the
  /// destination has returned one (steady state allocates nothing per
  /// phase, let alone per message). Publishes the earliest arrival sent
  /// to each destination (kInf: no batch); with each shard's own pending
  /// minimum, the serial step takes every shard's next_t from these
  /// without a separate drain phase.
  void flush_out() {
    const auto k = static_cast<std::size_t>(eng->part_.shards);
    for (int b = 0; b < eng->part_.shards; ++b) {
      if (b == id) continue;
      double& sent = eng->sent_min_[static_cast<std::size_t>(id) * k +
                                    static_cast<std::size_t>(b)];
      Batch& box = outbox[static_cast<std::size_t>(b)];
      sent = kInf;
      if (box.empty()) continue;
      for (const CrossMsg& cm : box) sent = std::min(sent, cm.t);
      eng->channel(id, b).push(std::move(box));
      Batch next;
      eng->return_channel(b, id).pop(next);
      next.clear();
      box = std::move(next);
    }
  }

  /// Takes in the batches flushed to this shard in the previous phase:
  /// at most one per sender, as the serial step recorded them. A batch a
  /// sender flushes in the current phase stays in the channel until the
  /// next one — taking it early could add a same-time child to this
  /// phase's wave, which must hold exactly one causal generation.
  void drain_in() {
    const auto k = static_cast<std::size_t>(eng->part_.shards);
    for (int a = 0; a < eng->part_.shards; ++a) {
      if (a == id) continue;
      if (eng->inbound_[static_cast<std::size_t>(a) * k +
                        static_cast<std::size_t>(id)] == kInf) {
        continue;
      }
      Batch batch;
      require_lit(eng->channel(a, id).pop(batch),
                  "flushed batch missing from its channel");
      for (CrossMsg& cm : batch) {
        push_local(cm.t, cm.parent, cm.send_index, cm.to, std::move(cm.msg));
      }
      batch.clear();
      // Hand the emptied buffer back to its producer for reuse.
      eng->return_channel(id, a).push(std::move(batch));
    }
  }

  void deliver(const Entry& ev) {
    now = ev.t;
    // Moved out before the slot is recycled: the handler's sends may
    // reuse it or grow the slot vector.
    const Message msg = std::move(slots[ev.slot]);
    const NodeId to = slot_to[ev.slot];
    free_slots.push_back(ev.slot);
    // Mirrors the sequential ledger: only edge deliveries advance the
    // paper's time measure. Merged across shards as a max.
    if (msg.edge != kNoEdge) stats.completion_time = now;
    ++stats.events;
    cur_t = ev.t;
    cur_parent = ev.parent;
    cur_send_index = ev.send_index;
    cur_node = to;
    cur_lineage = nullptr;
    sends_in_handler = 0;
    Context ctx = make_context(to);
    eng->processes_[to].on_message(ctx, msg);
  }

  /// Normal round: deliver everything strictly before the safe bound.
  /// Locally generated events that land inside the window join the heap
  /// and are delivered in comparator order within the same call.
  void run_window(double bound) {
    while (!heap.empty() && heap.front().t < bound) deliver(pop_top());
  }

  /// Zero-lookahead round: snapshot the currently-pending events at
  /// exactly t (one causal generation, already in sequential order via
  /// successive pops), then run their handlers. Children spawned at the
  /// same t re-enter the heap and wait for the next wave — they are
  /// genealogically later than everything in this snapshot.
  void run_wave(double t) {
    wave.clear();
    while (!heap.empty() && heap.front().t == t) wave.push_back(pop_top());
    for (const Entry& ev : wave) deliver(ev);
  }

  ShardEngine* eng;
  int id;
  std::vector<NodeId> owned;  // ascending node ids
  double now = 0;

  std::vector<Entry> heap;
  std::vector<Message> slots;
  // The node each slot's message is delivered to. A separate array:
  // Message fills one 64-byte line, so a field next to it would double
  // the slot.
  std::vector<NodeId> slot_to;
  std::vector<std::uint32_t> free_slots;
  std::deque<Lineage> arena;  // pointer-stable lineage records
  std::vector<Entry> wave;    // scratch for run_wave
  std::vector<Batch> outbox;  // per-destination mailboxes (k entries)

  // Current handler identity (for lazy lineage creation).
  double cur_t = 0;
  const Lineage* cur_parent = nullptr;
  std::uint32_t cur_send_index = 0;
  NodeId cur_node = kNoNode;
  bool cur_is_start = false;
  const Lineage* cur_lineage = nullptr;
  std::uint32_t sends_in_handler = 0;

  RunStats stats;
};

// ---------------------------------------------------------------------------
// ShardEngine
// ---------------------------------------------------------------------------

ShardEngine::ShardEngine(const Graph& g, const ProcessFactory& factory,
                         std::unique_ptr<DelayModel> delay, std::uint64_t seed,
                         Options opt)
    : ShardEngine(g, ProcessStore::from_factory(g.node_count(), factory),
                  std::move(delay), seed, opt) {}

ShardEngine::ShardEngine(const Graph& g, ProcessStore store,
                         std::unique_ptr<DelayModel> delay, std::uint64_t seed,
                         Options opt)
    : ProcessHost(g, std::move(store)),
      part_(partition_shards(g, opt.shards, opt.partition)),
      pipeline_(g, std::move(delay), seed) {
  require(opt.threads >= 0, "thread count must be >= 0");
  for (auto& counts : channel_messages_) {
    counts.assign(static_cast<std::size_t>(2 * g.edge_count()), 0);
  }

  // Keyed draws only: a parallel engine cannot reproduce a shared
  // stream's draw order.
  pipeline_.set_keyed(true);

  const int k = part_.shards;
  shards_.reserve(static_cast<std::size_t>(k));
  for (int s = 0; s < k; ++s) {
    // csca-analyze: allow(SCALE-1): k per-shard bodies, not per-node
    shards_.push_back(std::make_unique<Shard>(this, s));
    shards_.back()->outbox.resize(static_cast<std::size_t>(k));
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    shards_[static_cast<std::size_t>(part_.shard(v))]->owned.push_back(v);
  }
  channels_.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  returns_.resize(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  for (int a = 0; a < k; ++a) {
    for (int b = 0; b < k; ++b) {
      if (a == b) continue;
      const auto idx = static_cast<std::size_t>(a * k + b);
      // csca-analyze: allow(SCALE-1): k^2 channel endpoints, not per-node
      channels_[idx] = std::make_unique<SpscChannel<Batch>>();
      // csca-analyze: allow(SCALE-1): k^2 return channels, not per-node
      returns_[idx] = std::make_unique<SpscChannel<Batch>>();
    }
  }

  // Lookahead closure. Direct entries are the minimum declared delay
  // over boundary edges; the Floyd-Warshall pass (diagonal seeded to
  // infinity) extends them to shortest >= 1-edge paths, including
  // cycles back into the same shard. The closure is what makes the
  // per-round bounds sound against multi-hop relays: a message may
  // reach s through a shard whose queue is currently empty, and cycles
  // bound how far a shard may run ahead of its own feedback.
  cross_min_.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k),
                    kInf);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(e);
    const int a = part_.shard(edge.u);
    const int b = part_.shard(edge.v);
    if (a == b) continue;
    const double d = pipeline_.delay_model().min_delay(e, edge.w);
    require(d >= 0.0, "min_delay must be non-negative");
    double& ab = cross_min_[static_cast<std::size_t>(a * k + b)];
    double& ba = cross_min_[static_cast<std::size_t>(b * k + a)];
    ab = std::min(ab, d);
    ba = std::min(ba, d);
  }
  for (int m = 0; m < k; ++m) {
    for (int a = 0; a < k; ++a) {
      for (int s = 0; s < k; ++s) {
        const double via = cross_min_[static_cast<std::size_t>(a * k + m)] +
                           cross_min_[static_cast<std::size_t>(m * k + s)];
        double& as = cross_min_[static_cast<std::size_t>(a * k + s)];
        as = std::min(as, via);
      }
    }
  }

  sent_min_.assign(static_cast<std::size_t>(k) * static_cast<std::size_t>(k),
                   kInf);
  inbound_ = sent_min_;
  pending_min_.assign(static_cast<std::size_t>(k), kInf);
  next_t_.assign(static_cast<std::size_t>(k), kInf);
  bound_.assign(static_cast<std::size_t>(k), kInf);
  threads_ = opt.threads > 0 ? std::min(opt.threads, k) : k;
}

ShardEngine::ShardEngine(const Graph& g, const ProcessFactory& factory,
                         std::unique_ptr<DelayModel> delay, std::uint64_t seed)
    : ShardEngine(g, factory, std::move(delay), seed, Options{}) {}

ShardEngine::~ShardEngine() = default;

void ShardEngine::set_faults(const FaultInjector* f) {
  require(!ran_, "faults must be attached before run()");
  pipeline_.set_faults(f);
}

RunStats ShardEngine::run() {
  require(!ran_, "ShardEngine::run is single-shot");
  ran_ = true;

  // Every phase: drain the channels, run this round's handlers (on_start
  // in the first phase, then a window or a wave), flush. The serial step
  // between phases plans the next round.
  run_rounds(
      threads_, static_cast<std::size_t>(part_.shards),
      [this](std::size_t s) {
        Shard& sh = *shards_[s];
        sh.drain_in();
        switch (phase_) {
          case Phase::kStart:
            sh.start();
            break;
          case Phase::kWindow:
            sh.run_window(bound_[s]);
            break;
          case Phase::kWave:
            if (sh.next_time() == wave_t_) sh.run_wave(wave_t_);
            break;
        }
        sh.flush_out();
        pending_min_[s] = sh.next_time();
      },
      [this] { return plan_round(); });

  for (const auto& sh : shards_) {
    stats_.add_ledger(sh->stats);
    stats_.completion_time =
        std::max(stats_.completion_time, sh->stats.completion_time);
    stats_.events += sh->stats.events;
  }
  fold_channel_counts(channel_messages_);
  return stats_;
}

bool ShardEngine::plan_round() {
  // The batches the phase flushed are what the next phase drains. Each
  // shard's earliest event once it has drained them: its own pending
  // minimum or the earliest arrival sent to it.
  inbound_ = sent_min_;
  const int k = part_.shards;
  double t_min = kInf;
  for (int s = 0; s < k; ++s) {
    double t = pending_min_[static_cast<std::size_t>(s)];
    for (int a = 0; a < k; ++a) {
      if (a != s) t = std::min(t, inbound_[static_cast<std::size_t>(a * k + s)]);
    }
    next_t_[static_cast<std::size_t>(s)] = t;
    t_min = std::min(t_min, t);
  }
  if (t_min == kInf) return false;

  // Per-shard safe bounds. Any message that arrives in shard s after
  // this point was created by processing an event now pending in (or in
  // flight to) some shard a — chains trace back to this snapshot — so it
  // lands at >= next_t[a] + closure(a, s) >= bound[s].
  bool progress = false;
  for (int s = 0; s < k; ++s) {
    double b = kInf;
    for (int a = 0; a < k; ++a) {
      if (next_t_[a] == kInf) continue;
      const double la = cross_min_[static_cast<std::size_t>(a * k + s)];
      if (la == kInf) continue;
      b = std::min(b, next_t_[a] + la);
    }
    bound_[static_cast<std::size_t>(s)] = b;
    if (next_t_[s] < b) progress = true;
  }

  ++rounds_;
  if (progress) {
    phase_ = Phase::kWindow;
  } else {
    // Zero-lookahead standstill: every pending minimum is blocked by a
    // zero-length path. Deliver exactly the current generation at t_min;
    // progress is guaranteed (some shard sits at t_min).
    ++wave_rounds_;
    wave_t_ = t_min;
    phase_ = Phase::kWave;
  }
  return true;
}

}  // namespace csca
