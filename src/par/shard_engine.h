// Sharded conservative parallel engine.
//
// Partitions the graph's nodes into k shards (par/partition.h), gives
// each shard its own event queue, clock, and worker, forwards
// cross-shard sends through per-destination mailboxes flushed over SPSC
// channels (par/spsc.h) at round barriers, and advances shards in
// conservative CMB-style rounds bounded by per-boundary-edge
// lookahead. Its contract is strict: **the execution is bit-identical
// to the sequential Network** — same per-node delivery sequences, same
// digests, same RunStats ledger — at every shard/thread count. Two
// mechanisms make that possible:
//
// 1. Keyed delay draws. Random delay models consume a per-run RNG
//    stream whose draw order a parallel engine cannot reproduce, so
//    this engine only draws through DelayModel::delay_keyed, keyed by
//    (run seed, directed channel, per-channel send count) — a pure
//    function of protocol behaviour, not of interleaving. A Network
//    with set_keyed_delays(true) is the sequential reference; for
//    deterministic models (ExactDelay, EdgeFractionDelay) keyed and
//    plain draws coincide, so the plain Network is directly comparable.
//
// 2. Genealogical tie-break. The Network orders same-time events by a
//    global send sequence number, which does not exist across shards.
//    But among *simultaneously pending* same-time events, that seq
//    order equals a causal (genealogical) order: compare the events'
//    parent handlers — recursively, by delivery time, then genealogy —
//    and within one handler by send index. Each delivered event gets an
//    immutable Lineage record; pending events carry a pointer to their
//    parent's record. The conservative rounds guarantee an event is
//    only popped when everything sequentially before it in its shard is
//    already delivered or provably later, so per-shard pop order equals
//    the sequential delivery order restricted to the shard — and every
//    per-node state evolution, FIFO clamp, and keyed draw matches the
//    sequential run exactly.
//
// Round structure (run(): one parallel phase per round on the round
// team of par/round_team.h, the serial step in its barrier's
// completion):
//   phase    each shard drains its in-channels into its heap, delivers
//            the round's events (on_start in the first phase, then a
//            window or a wave, below), flushes its mailboxes, and
//            publishes its earliest pending time and the earliest
//            arrival it sent to each other shard  (parallel)
//   bound    next_t[s] = min of s's pending minimum and the arrivals
//            just sent to s — what a separate drain phase would see —
//            and bound[s] = min over shards a of next_t[a] + L(a, s), where
//            L is the min-plus closure (shortest >= 1-edge path,
//            including cycles back into s) of the k x k matrix of
//            DelayModel::min_delay over boundary edges. The closure —
//            not the direct edge minimum — is essential: a message can
//            relay into s through a shard whose queue is momentarily
//            empty, and a shard's own sends can cycle back   (serial)
//   window   every shard delivers its events with t < bound[s]
//            (parallel); any message it receives later provably has
//            t >= bound[s], so the window is safe including ties
//   wave     if no shard has next_t < bound (zero-lookahead cycles at
//            one timestamp T), shards at T deliver exactly their
//            currently-pending events at T — a causal generation.
//            Children land at T with strictly later genealogy, so
//            generation-by-generation delivery refines the sequential
//            same-time order. Guarantees progress every round.
//
// Cross-shard traffic is coalesced: a send to another shard appends to
// the sender's per-destination mailbox (a plain vector), and each
// parallel phase flushes every non-empty mailbox as one SPSC push at
// its end — one channel allocation per (sender, dest, phase) instead of
// one per message. Consumed batch buffers return to their sender over a
// reverse SPSC channel, so steady state recycles buffers instead of
// allocating. Safe-time semantics are untouched: messages are only
// ever observed after the barrier that ends their phase, and batches preserve
// the per-channel push order, so delivery order — and with it the
// keyed-delay bit-identity contract — is byte-identical to per-message
// pushes.
//
// Shared state is written under strict ownership (per-channel counters
// by the channel's unique sender shard, per-node state by the owner
// shard), and phases are separated by the round team's barrier, so the
// engine is lock-free on the hot path and clean under TSan.
//
// Not supported (sequential-engine features that have no cross-shard
// meaning): InvariantObserver hooks, step()/budget slicing.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "par/partition.h"
#include "par/spsc.h"
#include "sim/channel.h"
#include "sim/delay.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace csca {

class ShardEngine final : public ProcessHost {
 public:
  struct Options {
    int shards = 1;
    int threads = 0;  ///< round team size; 0 means one per shard
    /// Hub/delegate handling for the node partition (par/partition.h).
    PartitionOptions partition;
  };

  ShardEngine(const Graph& g, const ProcessFactory& factory,
              std::unique_ptr<DelayModel> delay, std::uint64_t seed,
              Options opt);
  ShardEngine(const Graph& g, const ProcessFactory& factory,
              std::unique_ptr<DelayModel> delay, std::uint64_t seed = 1);
  /// Hosts a pre-built (typically pooled) store of g.node_count()
  /// processes; no per-node allocation inside the engine.
  ShardEngine(const Graph& g, ProcessStore store,
              std::unique_ptr<DelayModel> delay, std::uint64_t seed,
              Options opt);
  ~ShardEngine() override;

  /// Runs the protocol to quiescence and returns the merged ledger.
  /// Single-shot: a ShardEngine instance runs once. The ProcessHost
  /// per-link counts are filled in when it returns.
  RunStats run();

  /// Attaches a fault injector (nullptr detaches; not owned). Fault
  /// fates key off the same per-channel send counts as the keyed delay
  /// draws, so a faulted run stays bit-identical to the keyed Network
  /// at every shard count. Same contract as Network::set_faults:
  /// inactive injectors are discarded; must be called before run().
  void set_faults(const FaultInjector* f);

  int shard_count() const { return part_.shards; }
  const ShardPartition& partition() const { return part_; }
  /// Barrier rounds executed, and how many were zero-lookahead waves.
  std::int64_t rounds() const { return rounds_; }
  std::int64_t wave_rounds() const { return wave_rounds_; }

 private:
  /// Birth certificate of a delivered event (or an on_start marker):
  /// enough to compare two events' positions in the sequential delivery
  /// order without a global counter. Records are immutable once
  /// published and owned by the arena of the shard that delivered the
  /// event; cross-shard readers see them through the channel's
  /// release/acquire edge (and the round barrier).
  struct Lineage {
    double t = 0;             ///< delivery time; -1 for on_start markers
    const Lineage* parent = nullptr;  ///< null => on_start marker
    std::uint32_t send_index = 0;  ///< birth send's index in its handler
    NodeId origin = kNoNode;  ///< marker only: the node starting up
  };

  /// A message in flight between shards.
  struct CrossMsg {
    double t = 0;  ///< FIFO-clamped arrival time
    const Lineage* parent = nullptr;
    std::uint32_t send_index = 0;
    NodeId to = kNoNode;  ///< receiving node
    Message msg;
  };

  /// A coalesced mailbox flush: every cross-shard message one sender
  /// shard produced for one destination during one parallel phase, in
  /// channel push order.
  using Batch = std::vector<CrossMsg>;

  struct Shard;

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Forward channel: batches flowing from shard `from` to shard `to`
  /// (producer = from's worker, consumer = to's worker).
  SpscChannel<Batch>& channel(int from, int to) {
    return *channels_[static_cast<std::size_t>(from) *
                          static_cast<std::size_t>(part_.shards) +
                      static_cast<std::size_t>(to)];
  }
  /// Reverse channel recycling emptied batch buffers: producer = the
  /// shard that consumed the batch (`from`), consumer = the shard that
  /// will refill it (`to`). Same unique-producer/unique-consumer pairing
  /// as the forward channel, just mirrored.
  SpscChannel<Batch>& return_channel(int from, int to) {
    return *returns_[static_cast<std::size_t>(from) *
                         static_cast<std::size_t>(part_.shards) +
                     static_cast<std::size_t>(to)];
  }

  /// What every shard runs in the coming phase (after its drain).
  enum class Phase : std::uint8_t { kStart, kWindow, kWave };

  /// Serial step between phases: each shard's next_t, the safe bounds
  /// and the next phase. Returns false when nothing is pending.
  bool plan_round();

  ShardPartition part_;

  // Sender-owned per-directed-channel state (2 * edge + direction): the
  // unique sender node of a channel lives in exactly one shard, so the
  // pipeline's clamps and counts and these per-class tallies are
  // written race-free without locks. run() folds the tallies into the
  // per-edge counters once the rounds are over.
  ChannelPipeline pipeline_;
  ClassCounts channel_messages_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<SpscChannel<Batch>>> channels_;
  std::vector<std::unique_ptr<SpscChannel<Batch>>> returns_;
  std::vector<double> cross_min_;  // k x k lookahead closure (see above)
  std::vector<double> sent_min_;   // k x k earliest arrival flushed a -> b
  std::vector<double> inbound_;    // sent_min_ as of the last barrier
  std::vector<double> pending_min_;  // per shard, after its phase
  std::vector<double> next_t_;
  std::vector<double> bound_;
  int threads_ = 1;  // round team size
  Phase phase_ = Phase::kStart;
  double wave_t_ = 0;

  std::int64_t rounds_ = 0;
  std::int64_t wave_rounds_ = 0;
  bool ran_ = false;
};

}  // namespace csca
