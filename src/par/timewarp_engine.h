// Optimistic (Time Warp) parallel engine — the third backend behind
// sim/engine.h, next to the sequential Network and the conservative
// ShardEngine.
//
// The conservative engine's safe-time windows come from the min-plus
// closure of per-edge minimum delays; at zero lookahead they collapse
// to one causal generation per barrier round (waves), serializing the
// run. Time Warp removes the windows entirely: every shard executes
// its pending events speculatively in local order, and correctness is
// restored after the fact —
//
//   * state saving: each process is snapshotted (par/state_save.h)
//     before every speculative delivery;
//   * rollback: a straggler — a cross-shard message whose position in
//     the engine's total event order (time, then ShardEngine's
//     genealogical tie-break) precedes something already executed —
//     undoes the executed suffix: protocol states restore from their
//     snapshots, per-channel send counters, FIFO clamps, and ledger
//     charges rewind exactly, and undone events re-enter the pending
//     queue;
//   * anti-messages: undoing an event that sent cross-shard messages
//     emits an anti-message per send; the receiver annihilates the
//     positive (or first rolls back past it, if already executed).
//     Cross-shard channels are FIFO SPSC, so a positive always
//     precedes its anti and annihilation never misses;
//   * GVT commit: each barrier round computes the global virtual time
//     — the minimum over pending and in-flight event times — which is
//     provably monotone and a floor under any future rollback. Events
//     strictly below GVT commit: only then do their ledger deltas
//     enter the engine's RunStats, their snapshots fossil-collect, and
//     any commit observer fires. Cost accounting is therefore billed
//     at commit, never speculatively — golden ledgers, check/ digests,
//     and ControlMeter admission stay byte-identical to the keyed
//     sequential reference at every worker count;
//   * calendar queue: the far (beyond-horizon) majority of each
//     shard's pending set sits in a bucketed calendar
//     (par/calqueue.h); only the near horizon pays binary-heap sifts.
//
// Determinism contract: identical to ShardEngine. Keyed delay draws
// (DelayModel::delay_keyed over (seed, channel, per-channel count))
// plus the genealogical same-time order mean a rolled-back handler
// re-executes with byte-identical inputs and re-draws byte-identical
// delays — speculation is invisible in every committed observable.
// FaultInjector fates are keyed off the same counts and replay
// identically through rollback.
//
// Not supported (same list as ShardEngine): InvariantObserver hooks,
// step()/budget slicing. Observers that must not see retracted
// deliveries use set_commit_hook, which fires per committed event only.
#pragma once

#include <functional>
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

class TimeWarpEngine final : public ProcessHost {
 public:
  struct Options {
    int shards = 1;
    int threads = 0;  ///< round team size; 0 means one per shard
    /// Max speculative deliveries per shard per barrier round. Bounds
    /// how far a shard can run ahead of its peers between drains — the
    /// throttle on rollback depth (and on wasted speculation).
    int quantum = 256;
    /// Hub/delegate handling for the node partition (par/partition.h).
    PartitionOptions partition;
  };

  TimeWarpEngine(const Graph& g, const ProcessFactory& factory,
                 std::unique_ptr<DelayModel> delay, std::uint64_t seed,
                 Options opt);
  TimeWarpEngine(const Graph& g, const ProcessFactory& factory,
                 std::unique_ptr<DelayModel> delay, std::uint64_t seed = 1);
  /// Hosts a pre-built (typically pooled) store; pooled stores with a
  /// copyable element type snapshot by arena-slab copy instead of
  /// per-object clone allocations.
  TimeWarpEngine(const Graph& g, ProcessStore store,
                 std::unique_ptr<DelayModel> delay, std::uint64_t seed,
                 Options opt);
  ~TimeWarpEngine() override;

  /// Runs the protocol to quiescence and returns the committed ledger.
  /// Single-shot: a TimeWarpEngine instance runs once. The ProcessHost
  /// per-link counts are filled in when it returns.
  RunStats run();

  /// Attaches a fault injector (same contract as ShardEngine/Network:
  /// before run(); inactive injectors are discarded). Fates key off the
  /// per-channel send counts, which rollback rewinds, so faulted runs
  /// stay bit-identical to the keyed Network at every shard count.
  void set_faults(const FaultInjector* f);

  // -- observability -------------------------------------------------------

  int shard_count() const { return part_.shards; }
  const ShardPartition& partition() const { return part_; }
  std::int64_t rounds() const { return rounds_; }
  /// Rollback episodes, and total events undone across them.
  std::int64_t rollbacks() const { return rollbacks_; }
  std::int64_t rolled_back_events() const { return rolled_back_events_; }
  /// Anti-messages emitted for undone cross-shard sends, and positives
  /// annihilated by them. After run() the two are equal: every anti
  /// finds exactly one positive.
  std::int64_t anti_messages() const { return anti_messages_; }
  std::int64_t annihilations() const { return annihilations_; }
  /// Deliveries executed speculatively (committed + later undone).
  std::int64_t speculative_events() const { return speculative_events_; }
  /// Committed deliveries (== stats().events).
  std::int64_t committed_events() const { return stats_.events; }
  /// Final GVT (+inf after a completed run).
  double gvt() const { return gvt_; }

  /// A committed delivery, in per-shard commit order (shards visited in
  /// id order each GVT round).
  struct CommittedEvent {
    double t = 0;
    NodeId node = kNoNode;
    bool is_edge = false;  ///< edge delivery (vs self-delivery/timer)
  };
  using CommitHook = std::function<void(const CommittedEvent&)>;
  /// Observer of committed events only — the engine's replacement for
  /// the sequential InvariantObserver surface: speculative deliveries
  /// that may later be retracted are never shown. Serial: fires in the
  /// GVT round, on one round-team thread while the others wait at the
  /// barrier. Must be set before run().
  void set_commit_hook(CommitHook hook) { commit_hook_ = std::move(hook); }

  /// One GVT round's summary, for the GVT/fossil property tests.
  struct GvtSample {
    std::int64_t round = 0;
    double gvt = 0;  ///< the new GVT (== the candidate minimum)
    /// Min pending event time over shards, and min arrival/target time
    /// over messages still in flight, at the round's barrier. GVT is
    /// their minimum, so gvt <= both.
    double min_pending = 0;
    double min_in_flight = 0;
    std::int64_t committed_events = 0;  ///< total after this round's commits
    /// Newest event time committed this round; -inf if none. Each shard
    /// fossil-collects these events (snapshot, slot, undo records) at
    /// the start of its next phase, so fossil collection never frees
    /// state at or above GVT.
    double max_freed_time = -std::numeric_limits<double>::infinity();
  };
  using GvtHook = std::function<void(const GvtSample&)>;
  /// Fires once per GVT round (serial, after commits, on one round-team
  /// thread). Must be set before run().
  void set_gvt_hook(GvtHook hook) { gvt_hook_ = std::move(hook); }

  /// Deterministic worker pacing for rollback torture tests: the hook
  /// returns shard s's speculative-delivery budget for the given round
  /// (values < 0 mean "the configured quantum"; 0 stalls the shard for
  /// the round — it still drains, so stragglers and anti-messages keep
  /// flowing). Called serially before each round, on one round-team
  /// thread. Must be set before run().
  using PaceHook = std::function<int(int shard, std::int64_t round)>;
  void set_pace_hook(PaceHook hook) { pace_hook_ = std::move(hook); }

 private:
  /// Birth certificate of a delivered event — same shape and total
  /// order as ShardEngine::Lineage (see the ordering discussion there),
  /// but compared by chain value rather than pointer identity: rollback
  /// and re-send can create value-equal duplicate records for one
  /// logical event, and a pointer comparison would declare their
  /// descendant chains incomparable (breaking the pending queue's
  /// strict weak ordering). Records are immutable and arena-owned by
  /// the delivering shard; rollback never reclaims them. A re-executed
  /// handler republishes its first execution's record (memoized per
  /// message slot) so chains stay pointer-shared on the fast path.
  struct Lineage {
    double t = 0;             ///< delivery time; -1 for on_start markers
    const Lineage* parent = nullptr;  ///< null => on_start marker
    std::uint32_t send_index = 0;  ///< birth send's index in its handler
    NodeId origin = kNoNode;  ///< the handler's node (marker: starting up)
  };

  /// A cross-shard message: a speculative positive, or the anti-message
  /// annihilating it. uid pairs the two (sender-shard tagged, unique
  /// per positive; a re-sent positive after rollback gets a fresh uid).
  struct TwCross {
    double t = 0;  ///< positive: FIFO-clamped arrival; anti: target's t
    const Lineage* parent = nullptr;
    std::uint32_t send_index = 0;
    NodeId to = kNoNode;  ///< positive: receiving node
    std::uint64_t uid = 0;
    bool anti = false;
    Message msg;
  };

  using Batch = std::vector<TwCross>;

  struct Shard;

  static constexpr double kInf = std::numeric_limits<double>::infinity();

  SpscChannel<Batch>& channel(int from, int to) {
    return *channels_[static_cast<std::size_t>(from) *
                          static_cast<std::size_t>(part_.shards) +
                      static_cast<std::size_t>(to)];
  }
  SpscChannel<Batch>& return_channel(int from, int to) {
    return *returns_[static_cast<std::size_t>(from) *
                         static_cast<std::size_t>(part_.shards) +
                     static_cast<std::size_t>(to)];
  }

  /// Serial GVT phase, in the round team's barrier completion: the GVT
  /// minimum, the ledger merge (commits marked for each shard's fossil
  /// collection), the commit and GVT hooks. Returns false when the run
  /// has terminated.
  bool gvt_round();
  void commit_shard(Shard& sh, double bound, double& max_committed);
  /// Serial: counts the next round and sets each shard's budget.
  void begin_round();

  ShardPartition part_;
  int quantum_;

  // Sender-owned per-directed-channel state (2 * edge + direction): the
  // pipeline's clamps and counts and these per-class tallies are
  // written race-free by the channel's unique sender shard — rollback
  // runs on the owning shard's worker, so the rewinds are too. run()
  // folds the tallies into the per-edge counters once the rounds are
  // over.
  ChannelPipeline pipeline_;
  ClassCounts channel_messages_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<SpscChannel<Batch>>> channels_;
  std::vector<std::unique_ptr<SpscChannel<Batch>>> returns_;
  std::vector<double> pending_min_;   // per-shard, published at barrier
  std::vector<double> in_flight_min_; // per-shard, msgs flushed this phase
  std::vector<int> budget_;           // per-shard round budget (pacing)
  int threads_ = 1;                   // round team size

  double gvt_ = 0;
  std::int64_t rounds_ = 0;
  std::int64_t rollbacks_ = 0;
  std::int64_t rolled_back_events_ = 0;
  std::int64_t anti_messages_ = 0;
  std::int64_t annihilations_ = 0;
  std::int64_t speculative_events_ = 0;
  bool ran_ = false;
  CommitHook commit_hook_;
  GvtHook gvt_hook_;
  PaceHook pace_hook_;
};

}  // namespace csca
