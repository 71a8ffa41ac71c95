#include "par/timewarp_engine.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <unordered_map>

#include "par/calqueue.h"
#include "par/ring.h"
#include "par/round_team.h"
#include "par/state_save.h"
#include "util/require_lit.h"

namespace csca {

// ---------------------------------------------------------------------------
// Shard: one optimistic event loop. Owns a subset of nodes, their
// pending and processed-but-uncommitted events, their state snapshots,
// and the undo records that make every speculative side effect exactly
// reversible. Implements EngineBackend so protocol Contexts route sends
// straight here.
// ---------------------------------------------------------------------------

struct TimeWarpEngine::Shard final : public EngineBackend {
  Shard(TimeWarpEngine* engine, int shard_id)
      : eng(engine), id(shard_id), states(&engine->processes_) {}

  /// A pending event: arrival time, birth certificate (parent handler's
  /// lineage + send index within that handler), and the arena slot
  /// holding the message body. Same ordering as ShardEngine's Entry.
  struct Entry {
    double t = 0;
    const Lineage* parent = nullptr;
    std::uint32_t send_index = 0;
    std::uint32_t slot = 0;
  };

  // -- ordering (same total order as ShardEngine::Shard, compared by
  // value) ------------------------------------------------------------------
  //
  // ShardEngine can compare lineage chains by pointer: each handler
  // executes once, so a record's address is its identity. Under Time
  // Warp a positive that was annihilated and later re-sent (its sender
  // rolled back and re-executed) reaches the receiver as a fresh slot,
  // and its re-executed ancestors republish records that are value-equal
  // but pointer-distinct to the originals. Descendants of the original
  // and of the re-send can transiently coexist in one pending queue (the
  // original's are dead, awaiting their scrub), so pointer-based
  // equality would declare such chains incomparable — and a single
  // incomparable pair breaks the strict weak ordering the pending heap
  // needs, corrupting pop order between unrelated entries. The walk
  // below therefore treats pointer-distinct levels with equal
  // (t, send_index) as equal and carries the root-most send-index
  // divergence as the tie, so duplicates land in the same equivalence
  // class as their originals and every genuinely distinct pair stays
  // strictly ordered.
  //
  // Equal send indices do not make two records the same event: a handler
  // re-executed on a corrected history can consume different per-channel
  // counts, so its keyed fates drop or duplicate different sends and send
  // number i goes to another node than in the mis-speculated execution.
  // Those two children reach a third shard over different channels, so
  // the stale one's descendants can be executed while the live ones
  // arrive. The handler's node therefore breaks a tie that the send
  // index leaves open; without it the pair compares equal and the
  // in-order delivery check fails.

  /// Compares two chains leaf-up by value: <0, 0, >0. `tie` seeds the
  /// send-index divergence of a deeper (leaf-ward) level; a difference
  /// found closer to the root overrides it.
  static int lineage_cmp(const Lineage* a, const Lineage* b, int tie) {
    while (true) {
      if (a == b) return tie;
      if (a->t != b->t) return a->t < b->t ? -1 : 1;
      if (a->parent == nullptr || b->parent == nullptr) {
        if (a->origin != b->origin) return a->origin < b->origin ? -1 : 1;
        return tie;
      }
      if (a->send_index != b->send_index) {
        tie = a->send_index < b->send_index ? -1 : 1;
      } else if (a->origin != b->origin) {
        tie = a->origin < b->origin ? -1 : 1;
      }
      if (a->parent == b->parent) return tie;
      a = a->parent;
      b = b->parent;
    }
  }

  static bool lineage_before(const Lineage* a, const Lineage* b) {
    return lineage_cmp(a, b, 0) < 0;
  }

  static bool entry_before(const Entry& x, const Entry& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.parent == y.parent) return x.send_index < y.send_index;
    // Pointer-distinct parents: the entries' own send indices are the
    // leaf-level tie, decisive exactly when the parents are duplicates.
    const int tie = x.send_index < y.send_index
                        ? -1
                        : (x.send_index > y.send_index ? 1 : 0);
    return lineage_cmp(x.parent, y.parent, tie) < 0;
  }

  struct EntryTime {
    double operator()(const Entry& e) const { return e.t; }
  };
  struct EntryAfter {
    bool operator()(const Entry& x, const Entry& y) const {
      return entry_before(y, x);
    }
  };

  // -- speculative side-effect journal -------------------------------------

  /// One reversible side effect of a speculatively executed handler.
  /// rollback_from replays an event's records in reverse, so after undo
  /// every engine-level counter holds the exact value it had before the
  /// handler ran — the re-execution then re-draws byte-identical keyed
  /// delays and fault fates.
  struct Undo {
    enum Kind : std::uint8_t {
      kCount,    ///< a: channel — consumed one per-channel send count
      kArrival,  ///< a: channel, d: previous FIFO clamp value
      kCharge,   ///< a: channel, cls: class index — one per-class tally
      kLocal,    ///< a: slot — enqueued a same-shard event
      kCross,    ///< a: uid, dest: shard, d: arrival t — cross send
      kFinish,   ///< a: node — set its finish time (was unset)
    };
    Kind kind = kCount;
    std::uint8_t cls = 0;
    std::int32_t dest = 0;
    std::uint64_t a = 0;
    double d = 0;
  };

  /// A processed-but-uncommitted event, in entry order: everything
  /// needed to either commit it (bill the ledger deltas, fossil-collect
  /// the snapshot) or roll it back (undo records, snapshot handle). Its
  /// undo records are the `undo_count` records it appended to the
  /// shard's undo log: done and the log grow and shrink at the same
  /// ends, so the newest event's records are the log's newest and the
  /// oldest event's its oldest.
  struct Done {
    Entry entry;
    std::uint32_t save = 0;
    std::uint32_t undo_count = 0;
    RunStats delta;  ///< the handler's ledger charges, billed at commit
    /// Exception the handler threw, if any. A throw during speculation
    /// may just mean the event ran on a mis-ordered history (e.g. a
    /// protocol invariant sees an ack before its cross-shard send has
    /// arrived), so it is held rather than raised: a rollback discards
    /// it with the speculation, and only if the event commits — its
    /// history then provably equal to the sequential run's — does the
    /// error surface, exactly where the sequential engine would throw.
    std::exception_ptr error;
  };

  // -- message slots --------------------------------------------------------

  /// Slot lifecycle. A slot keeps its message body across delivery
  /// (rollback re-delivers from it); it frees only at fossil collection
  /// or when a dead (annihilated) entry is scrubbed off the pending queue.
  enum : std::uint8_t { kEmpty = 0, kPendingSlot, kProcessedSlot, kDeadSlot };

  /// A message body and everything the shard tracks about it. Slots live
  /// in a pointer-stable arena, so deliver hands the body to the handler
  /// in place while the handler's sends add slots.
  struct Slot {
    Message msg;
    Entry entry;
    const Lineage* lineage = nullptr;  ///< record published by its handler
    std::uint64_t uid = 0;             ///< 0 = local (no uid)
    NodeId to = kNoNode;               ///< receiving node
    std::uint8_t state = kEmpty;
  };

  /// The slot arena: fixed chunks that never move. (A std::deque would
  /// do, but it packs only four 128-byte slots per block.)
  class SlotArena {
   public:
    std::size_t size() const { return size_; }
    Slot& operator[](std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }
    void grow() {
      if (size_ == chunks_.size() * kChunk) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunk));
      }
      ++size_;
    }

   private:
    static constexpr std::size_t kChunk = 1024;
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::size_t size_ = 0;
  };

  std::uint32_t alloc_slot(NodeId to, Message&& m) {
    std::uint32_t slot;
    if (!free_slots.empty()) {
      slot = free_slots.back();
      free_slots.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots.size());
      slots.grow();
    }
    Slot& sl = slots[slot];
    sl.msg = std::move(m);
    sl.to = to;
    sl.lineage = nullptr;
    return slot;
  }

  void free_slot(std::uint32_t slot) {
    Slot& sl = slots[slot];
    if (sl.uid != 0) {
      by_uid.erase(sl.uid);
      sl.uid = 0;
    }
    sl.state = kEmpty;
    free_slots.push_back(slot);
  }

  void push_local(double t, const Lineage* parent, std::uint32_t send_index,
                  NodeId to, Message&& m) {
    const std::uint32_t slot = alloc_slot(to, std::move(m));
    const Entry en{t, parent, send_index, slot};
    Slot& sl = slots[slot];
    sl.state = kPendingSlot;
    sl.entry = en;
    sl.uid = 0;
    pending.push(en);
    if (recording) {
      undo_log.push_back(Undo{Undo::kLocal, 0, 0, slot, 0.0});
    }
  }

  // -- lineage (identical arena discipline to ShardEngine) -----------------

  const Lineage* handler_lineage() {
    if (cur_lineage == nullptr) {
      if (cur_is_start) {
        arena.push_back(Lineage{-1.0, nullptr, 0, cur_node});
        cur_lineage = &arena.back();
      } else if (slots[cur_slot].lineage != nullptr) {
        // Re-execution after a rollback republishes the record the
        // first execution allocated: pre- and post-rollback descendants
        // then share chain pointers, which keeps lineage_cmp on its
        // cheap pointer-equality exits and bounds arena growth. (The
        // comparison itself is value-based, so the duplicates that slot
        // memoization cannot prevent — an annihilated positive re-sent
        // into a fresh slot — still order correctly.)
        cur_lineage = slots[cur_slot].lineage;
      } else {
        arena.push_back(Lineage{now, cur_parent, cur_send_index, cur_node});
        cur_lineage = &arena.back();
        slots[cur_slot].lineage = cur_lineage;
      }
    }
    return cur_lineage;
  }

  // -- EngineBackend -------------------------------------------------------

  double engine_now() const override { return now; }
  const Graph& engine_graph() const override { return *eng->graph_; }

  /// Records the per-channel tally of one billed send (undoable). The
  /// ledger charge itself went to ledger(), which holds it back from the
  /// committed RunStats until GVT passes the current event.
  void tally(MsgClass cls, std::size_t channel) {
    ++eng->channel_messages_[class_index(cls)][channel];
    if (recording) {
      undo_log.push_back(Undo{Undo::kCharge,
                              static_cast<std::uint8_t>(class_index(cls)), 0,
                              channel, 0.0});
    }
  }

  /// on_start sends run once, before any speculation, and can never be
  /// rolled back: they commit immediately.
  RunStats& ledger() { return recording ? cur_delta : start_stats; }

  /// The pipeline's journal: every consumed send count and overwritten
  /// FIFO clamp, so a rolled-back send replays its exact draws and fate.
  struct Journal {
    Shard* sh;
    void count(std::size_t channel) {
      if (sh->recording) {
        sh->undo_log.push_back(Undo{Undo::kCount, 0, 0, channel, 0.0});
      }
    }
    void arrival(std::size_t channel, double previous) {
      if (sh->recording) {
        sh->undo_log.push_back(
            Undo{Undo::kArrival, 0, 0, channel, previous});
      }
    }
  };

  std::uint64_t next_uid() {
    return (static_cast<std::uint64_t>(id + 1) << 48) | uid_counter++;
  }

  void route(NodeId to, double t, const Lineage* lin, Message&& m) {
    require_lit(sends_in_handler != UINT32_MAX, "send index space exhausted");
    const std::uint32_t idx = sends_in_handler++;
    const int dest = eng->part_.shard(to);
    if (dest == id) {
      push_local(t, lin, idx, to, std::move(m));
    } else {
      const std::uint64_t uid = next_uid();
      outbox[static_cast<std::size_t>(dest)].push_back(
          TwCross{t, lin, idx, to, uid, false, std::move(m)});
      if (recording) {
        undo_log.push_back(Undo{Undo::kCross, 0, dest, uid, t});
      }
    }
  }

  void engine_send(NodeId from, EdgeId e, Message m, MsgClass cls) override {
    const SendOutcome out =
        eng->pipeline_.send(from, e, now, m, cls, ledger(), Journal{this});
    if (!out.billed()) return;
    tally(cls, out.channel);
    if (!out.queued()) return;
    const Lineage* lin = handler_lineage();
    if (out.duplicate) {
      route(out.to, out.arrival, lin, Message(m));
      route(out.to, out.dup_arrival, lin, std::move(m));
    } else {
      route(out.to, out.arrival, lin, std::move(m));
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
    push_local(now + delay, lin, idx, v, std::move(m));
  }

  void engine_finish(NodeId v) override {
    if (eng->stamp_finish(v, now) && recording) {
      undo_log.push_back(Undo{Undo::kFinish, 0, 0,
                              static_cast<std::uint64_t>(v), 0.0});
    }
  }

  // -- rollback ------------------------------------------------------------

  /// Replays one journal record in reverse.
  void undo_one(const Undo& u) {
    switch (u.kind) {
      case Undo::kCount:
        eng->pipeline_.undo_count(u.a);
        break;
      case Undo::kArrival:
        eng->pipeline_.undo_arrival(u.a, u.d);
        break;
      case Undo::kCharge:
        --eng->channel_messages_[u.cls][u.a];
        break;
      case Undo::kLocal: {
        // The child is pending: if it had been processed it sits
        // later in the done suffix and was undone before its
        // parent, and it cannot have committed (its time is at or
        // above the cut's, which is at or above GVT).
        require_lit(slots[u.a].state == kPendingSlot,
                    "rollback found a local child in an impossible state");
        slots[u.a].state = kDeadSlot;
        break;
      }
      case Undo::kCross:
        outbox[static_cast<std::size_t>(u.dest)].push_back(
            TwCross{u.d, nullptr, 0, kNoNode, u.a, true, Message{}});
        ++anti_sent;
        break;
      case Undo::kFinish:
        eng->finish_time_[u.a] = -1.0;
        break;
    }
  }

  /// Pops the newest `n` undo records, replaying each in reverse.
  void undo_newest(std::size_t n) {
    for (; n > 0; --n) {
      undo_one(undo_log.back());
      undo_log.pop_back();
    }
  }

  /// Undoes every processed event at or after `cut` in entry order,
  /// newest first: side effects replay in reverse, protocol state
  /// restores from its pre-event snapshot, cross-shard sends turn into
  /// anti-messages, local children die in place, and the event itself
  /// re-enters the pending queue for re-execution. Committed events are
  /// never reached: commitment requires t < GVT, and every straggler or
  /// anti-message has t >= GVT (it was in flight, and hence a GVT
  /// floor, at the barrier before it arrived).
  void rollback_from(const Entry& cut) {
    std::int64_t undone = 0;
    while (!done.empty() && !entry_before(done.back().entry, cut)) {
      Done& d = done.back();
      undo_newest(d.undo_count);
      Slot& sl = slots[d.entry.slot];
      states.restore(sl.to, d.save);
      states.drop(d.save);
      sl.state = kPendingSlot;
      pending.push(d.entry);
      d.error = nullptr;
      done.pop_back();
      ++undone;
    }
    if (undone > 0) {
      ++rollback_count;
      rolled_back += undone;
    }
  }

  // -- round phases (each runs on the team member that owns the shard) ------

  void start() {
    now = 0;
    cur_is_start = true;
    recording = false;
    for (NodeId v : owned) {
      if (eng->pipeline_.crashed(v, 0.0)) continue;
      cur_node = v;
      cur_lineage = nullptr;
      sends_in_handler = 0;
      Context ctx = make_context(v);
      eng->processes_.at(v).on_start(ctx);
    }
    cur_is_start = false;
    flush_out();
  }

  /// Fossil collection of the events the last GVT round committed: their
  /// snapshots, slots (with their uids) and undo records are released.
  /// Runs at the start of the shard's next phase, before anything can
  /// roll back, so the serial GVT step only marks what committed.
  void fossil_collect() {
    for (; committed > 0; --committed) {
      Done& d = done.front();
      states.drop(d.save);
      free_slot(d.entry.slot);
      undo_log.pop_front(d.undo_count);
      done.pop_front();
    }
  }

  /// Coalesced mailbox flush (same buffer recycling as ShardEngine).
  /// Returns the minimum event time over everything flushed — positives
  /// by arrival, anti-messages by their target's time — which is this
  /// shard's in-flight contribution to the round's GVT candidate.
  double flush_out() {
    double sent_min = kInf;
    for (int b = 0; b < eng->part_.shards; ++b) {
      if (b == id) continue;
      Batch& box = outbox[static_cast<std::size_t>(b)];
      if (box.empty()) continue;
      for (const TwCross& c : box) sent_min = std::min(sent_min, c.t);
      eng->channel(id, b).push(std::move(box));
      Batch next;
      eng->return_channel(b, id).pop(next);
      next.clear();
      box = std::move(next);
    }
    return sent_min;
  }

  void drain_in() {
    for (int a = 0; a < eng->part_.shards; ++a) {
      if (a == id) continue;
      eng->channel(a, id).drain([this, a](Batch&& batch) {
        for (TwCross& cm : batch) {
          if (cm.anti) {
            handle_anti(cm);
          } else {
            handle_positive(std::move(cm));
          }
        }
        batch.clear();
        eng->return_channel(id, a).push(std::move(batch));
      });
    }
  }

  void handle_positive(TwCross&& cm) {
    Entry en{cm.t, cm.parent, cm.send_index, 0};
    // Straggler: the message lands before something already executed.
    // Roll the suffix back first so the pending queue only ever holds
    // events after every processed one.
    if (!done.empty() && entry_before(en, done.back().entry)) {
      rollback_from(en);
    }
    en.slot = alloc_slot(cm.to, std::move(cm.msg));
    Slot& sl = slots[en.slot];
    sl.state = kPendingSlot;
    sl.entry = en;
    sl.uid = cm.uid;
    by_uid.emplace(cm.uid, en.slot);
    pending.push(en);
  }

  void handle_anti(const TwCross& cm) {
    // FIFO SPSC channels: the positive always precedes its anti, so the
    // lookup cannot miss.
    const auto it = by_uid.find(cm.uid);
    require_lit(it != by_uid.end(), "anti-message arrived before its positive");
    Slot& sl = slots[it->second];
    if (sl.state == kProcessedSlot) {
      // Executed already: roll back through it (inclusive), which
      // re-enqueues it pending — then annihilate in place.
      rollback_from(sl.entry);
    }
    require_lit(sl.state == kPendingSlot,
                "annihilation target in an impossible state");
    sl.state = kDeadSlot;
    sl.uid = 0;
    by_uid.erase(it);
    ++annihilated;
  }

  /// Pops annihilated entries off the head of the pending queue and
  /// frees their slots. Keeps the published pending minimum live: a
  /// dead head would floor GVT with an event that will never execute.
  void scrub_dead() {
    while (!pending.empty() && slots[pending.top().slot].state == kDeadSlot) {
      const Entry en = pending.pop();
      free_slot(en.slot);
    }
  }

  void deliver(const Entry& ev) {
    now = ev.t;
    ++spec_events;
    if (!done.empty()) {
      require_lit(entry_before(done.back().entry, ev),
                  "speculative delivery out of entry order");
    }
    // The handler reads the body in place: the slot keeps it for
    // re-delivery if this very delivery is later rolled back, and the
    // arena does not move it when the handler's sends add slots.
    const Slot& slot = slots[ev.slot];
    const NodeId to = slot.to;
    cur_t = ev.t;
    cur_parent = ev.parent;
    cur_send_index = ev.send_index;
    cur_node = to;
    cur_slot = ev.slot;
    cur_lineage = nullptr;
    sends_in_handler = 0;
    cur_delta = RunStats{};
    const std::size_t undo_mark = undo_log.size();
    recording = true;
    const std::uint32_t save = states.save(to);
    Context ctx = make_context(to);
    try {
      eng->processes_[to].on_message(ctx, slot.msg);
    } catch (...) {
      // Mis-speculation can run a handler on an impossible history and
      // trip a protocol invariant. Unwind the partial execution (the
      // journal covers side effects up to the throw; the snapshot
      // covers the state) and hold the error on the done record — see
      // Done::error for when it surfaces.
      recording = false;
      undo_newest(undo_log.size() - undo_mark);
      states.restore(to, save);
      done.push_back(Done{ev, save, 0, RunStats{}, std::current_exception()});
      return;
    }
    recording = false;
    done.push_back(
        Done{ev, save, static_cast<std::uint32_t>(undo_log.size() - undo_mark),
             cur_delta, nullptr});
  }

  /// Executes up to `budget` pending events in entry order. Annihilated
  /// entries reached along the way are scrubbed for free.
  void speculate(int budget) {
    while (budget != 0) {
      scrub_dead();
      if (pending.empty()) break;
      const Entry ev = pending.pop();
      slots[ev.slot].state = kProcessedSlot;
      deliver(ev);
      --budget;
    }
  }

  TimeWarpEngine* eng;
  int id;
  std::vector<NodeId> owned;  // ascending node ids
  double now = 0;

  TieredCalQueue<Entry, EntryTime, EntryAfter> pending;
  Ring<Done> done;      // processed, uncommitted; entry order
  Ring<Undo> undo_log;  // the done events' undo records, in the same order
  std::size_t committed = 0;  // done's oldest, committed by the last GVT round
  SlotArena slots;
  std::vector<std::uint32_t> free_slots;
  std::unordered_map<std::uint64_t, std::uint32_t> by_uid;
  std::deque<Lineage> arena;  // pointer-stable lineage records
  std::vector<Batch> outbox;  // per-destination mailboxes (k entries)
  SavedStates states;
  std::uint64_t uid_counter = 0;

  // Current handler identity (for lazy lineage creation) and its
  // accumulating ledger deltas.
  double cur_t = 0;
  const Lineage* cur_parent = nullptr;
  std::uint32_t cur_send_index = 0;
  NodeId cur_node = kNoNode;
  std::uint32_t cur_slot = 0;
  bool cur_is_start = false;
  const Lineage* cur_lineage = nullptr;
  std::uint32_t sends_in_handler = 0;
  bool recording = false;
  RunStats cur_delta;

  RunStats start_stats;  // on_start sends: committed immediately

  // Per-shard counters, summed serially each GVT round.
  std::int64_t spec_events = 0;
  std::int64_t rollback_count = 0;
  std::int64_t rolled_back = 0;
  std::int64_t anti_sent = 0;
  std::int64_t annihilated = 0;
};

// ---------------------------------------------------------------------------
// TimeWarpEngine
// ---------------------------------------------------------------------------

TimeWarpEngine::TimeWarpEngine(const Graph& g, const ProcessFactory& factory,
                               std::unique_ptr<DelayModel> delay,
                               std::uint64_t seed, Options opt)
    : TimeWarpEngine(g, ProcessStore::from_factory(g.node_count(), factory),
                     std::move(delay), seed, opt) {}

TimeWarpEngine::TimeWarpEngine(const Graph& g, ProcessStore store,
                               std::unique_ptr<DelayModel> delay,
                               std::uint64_t seed, Options opt)
    : ProcessHost(g, std::move(store)),
      part_(partition_shards(g, opt.shards, opt.partition)),
      quantum_(opt.quantum),
      pipeline_(g, std::move(delay), seed) {
  require(opt.threads >= 0, "thread count must be >= 0");
  require(opt.quantum >= 1, "speculation quantum must be >= 1");
  for (auto& counts : channel_messages_) {
    counts.assign(static_cast<std::size_t>(2 * g.edge_count()), 0);
  }

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

  pending_min_.assign(static_cast<std::size_t>(k), kInf);
  in_flight_min_.assign(static_cast<std::size_t>(k), kInf);
  budget_.assign(static_cast<std::size_t>(k), quantum_);
  threads_ = opt.threads > 0 ? std::min(opt.threads, k) : k;
}

TimeWarpEngine::TimeWarpEngine(const Graph& g, const ProcessFactory& factory,
                               std::unique_ptr<DelayModel> delay,
                               std::uint64_t seed)
    : TimeWarpEngine(g, factory, std::move(delay), seed, Options{}) {}

TimeWarpEngine::~TimeWarpEngine() = default;

void TimeWarpEngine::set_faults(const FaultInjector* f) {
  require(!ran_, "faults must be attached before run()");
  pipeline_.set_faults(f);
}

RunStats TimeWarpEngine::run() {
  require(!ran_, "TimeWarpEngine::run is single-shot");
  ran_ = true;

  // The first phase runs every on_start; each later one is a round:
  // fossil-collect what the last GVT round committed, drain, speculate,
  // flush, publish. The serial step between phases is the GVT round.
  bool started = false;
  run_rounds(
      threads_, static_cast<std::size_t>(part_.shards),
      [this, &started](std::size_t s) {
        Shard& sh = *shards_[s];
        if (!started) {
          sh.start();
          return;
        }
        sh.fossil_collect();
        sh.drain_in();
        sh.speculate(budget_[s]);
        in_flight_min_[s] = sh.flush_out();
        sh.scrub_dead();
        pending_min_[s] = sh.pending.min_time();
      },
      [this, &started] {
        if (started) {
          if (!gvt_round()) return false;
        } else {
          for (const auto& sh : shards_) stats_.add_ledger(sh->start_stats);
          started = true;
        }
        begin_round();
        return true;
      });

  for (const auto& sh : shards_) {
    sh->fossil_collect();
    require(sh->done.empty() && sh->pending.empty(),
            "terminated with uncommitted events");
    require(sh->by_uid.empty(), "terminated with unannihilated positives");
  }
  fold_channel_counts(channel_messages_);
  return stats_;
}

void TimeWarpEngine::begin_round() {
  ++rounds_;
  for (int s = 0; s < part_.shards; ++s) {
    int b = quantum_;
    if (pace_hook_) {
      const int p = pace_hook_(s, rounds_);
      if (p >= 0) b = p;
    }
    budget_[static_cast<std::size_t>(s)] = b;
  }
}

void TimeWarpEngine::commit_shard(Shard& sh, double bound,
                                  double& max_committed) {
  std::size_t n = 0;
  for (; n < sh.done.size() && sh.done[n].entry.t < bound; ++n) {
    const Shard::Done& d = sh.done[n];
    if (d.error != nullptr) {
      // The event survived to commit, so every event before it is
      // committed and its history equals the sequential run's: the
      // handler's throw is genuine, not a mis-speculation artifact.
      std::rethrow_exception(d.error);
    }
    const Shard::Slot& slot = sh.slots[d.entry.slot];
    const bool is_edge = slot.msg.edge != kNoEdge;
    stats_.add_ledger(d.delta);
    ++stats_.events;
    if (is_edge) {
      stats_.completion_time = std::max(stats_.completion_time, d.entry.t);
    }
    if (commit_hook_) {
      commit_hook_(CommittedEvent{d.entry.t, slot.to, is_edge});
    }
    max_committed = std::max(max_committed, d.entry.t);
  }
  // The shard's own team member releases them (Shard::fossil_collect).
  sh.committed = n;
}

bool TimeWarpEngine::gvt_round() {
  double min_pending = kInf;
  double min_flight = kInf;
  for (std::size_t s = 0; s < pending_min_.size(); ++s) {
    min_pending = std::min(min_pending, pending_min_[s]);
    min_flight = std::min(min_flight, in_flight_min_[s]);
  }
  const double cand = std::min(min_pending, min_flight);
  // GVT is monotone: everything pending or in flight descends from
  // processing events at or above the previous GVT, and handlers only
  // generate arrivals at or after their own time.
  require_lit(cand >= gvt_, "GVT regressed");
  gvt_ = cand;

  rollbacks_ = 0;
  rolled_back_events_ = 0;
  anti_messages_ = 0;
  annihilations_ = 0;
  speculative_events_ = 0;
  for (const auto& sh : shards_) {
    rollbacks_ += sh->rollback_count;
    rolled_back_events_ += sh->rolled_back;
    anti_messages_ += sh->anti_sent;
    annihilations_ += sh->annihilated;
    speculative_events_ += sh->spec_events;
  }

  double max_committed = -kInf;
  for (auto& sh : shards_) commit_shard(*sh, gvt_, max_committed);

  if (gvt_hook_) {
    gvt_hook_(GvtSample{rounds_, gvt_, min_pending, min_flight, stats_.events,
                        max_committed});
  }
  return cand != kInf;
}

}  // namespace csca
