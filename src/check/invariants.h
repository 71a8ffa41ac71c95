// Default invariant checker for the asynchronous engine.
//
// Attach a DefaultInvariantChecker to a Network (Network::set_observer)
// before the first step and it mechanically re-verifies, at every event,
// the invariants the paper's model (§1.3) and the engine's FIFO-channel
// contract promise — independently of the engine's own bookkeeping:
//
//   * sends happen only on edges incident to the sender;
//   * DelayModel outputs are non-NaN and within [0, w(e)];
//   * per-directed-edge channels are FIFO: every delivery matches the
//     oldest outstanding send on its channel, at exactly the arrival
//     time the engine committed to at send time;
//   * the simulated clock never runs backwards;
//   * self-deliveries return to their scheduler, with delay >= 0;
//   * no *spontaneous* sends after a node's local finish(): a finished
//     node may still respond while a message is being delivered to it
//     (DFS reject replies, GHS halt stragglers), but must not originate
//     traffic from on_start after finishing;
//   * ledger conservation (check_final): the final RunStats totals
//     equal the sum over edges of per-class message counts times edge
//     weights, the engine's per-edge counters match the checker's
//     independent tally, and a quiescent network has no channel with an
//     undelivered send.
//
// Under fault injection (Network::set_faults) the checker adapts: drop
// notifications join the send tally (attempts are charged), duplicate
// deliveries match against recorded phantom arrivals, and event
// conservation accounts for both. Give the checker the same injector
// via set_faults and it additionally verifies that no send leaves a
// crashed node, nothing is delivered over a link that is down, and
// nothing reaches a crashed node. check_arq verifies exactly-once FIFO
// delivery above the reliable-link layer (fault/reliable_link.h)
// against an independent receiver model built from the observed DATA
// frames.
//
// Violations are collected as human-readable strings (or thrown
// immediately with fail_fast), so the schedule-exploration checker can
// report them alongside the schedule that produced them.
//
// Footprint: O(channels) words plus one slot per send in flight. Each
// directed channel is a {head, tail} pair of indices into one slot
// arena (recycled through a free list), so an idle channel costs 8
// bytes; duplicates and out-of-order ARQ frames, ~1% events, live in
// one ordered set each keyed by (channel, value). memory_bytes()
// reports the total.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/network.h"

namespace csca {

class DefaultInvariantChecker final : public InvariantObserver {
 public:
  struct Options {
    /// Throw InvariantError at the first violation instead of
    /// collecting it (useful to fail a test at the offending event).
    bool fail_fast = false;
    /// Cap on collected violation strings; the rest are counted only.
    std::size_t max_violations = 64;
  };

  DefaultInvariantChecker() = default;
  explicit DefaultInvariantChecker(Options opts) : opts_(opts) {}

  void on_send(const Network& net, NodeId from, EdgeId e, MsgClass cls,
               double delay, double arrival) override;
  void on_self_schedule(const Network& net, NodeId v,
                        double delay) override;
  void on_deliver(const Network& net, NodeId to, const Message& m,
                  double t) override;
  void on_finish(const Network& net, NodeId v, double t) override;
  void on_drop(const Network& net, NodeId from, EdgeId e, MsgClass cls,
               FaultDropReason reason) override;
  void on_duplicate(const Network& net, NodeId from, EdgeId e,
                    double arrival) override;
  void on_garble(const Network& net, NodeId from, EdgeId e,
                 double arrival) override;

  /// Gives the checker the injector attached to the network so it can
  /// independently verify the crash / outage rules (no sends from a
  /// crashed node, no delivery on a down link or to a crashed node).
  /// Optional; the drop/duplicate bookkeeping works without it.
  void set_faults(const FaultInjector* f) { faults_ = f; }

  /// End-of-run checks (ledger conservation, channel drain). Call after
  /// run(); the channel-drain check only applies when net.idle().
  void check_final(const Network& net);

  /// Exactly-once FIFO above the ARQ layer: every node's ArqHost
  /// receiver state (next expected seq, inner deliveries) must match
  /// the checker's independent per-channel replay of the DATA frames it
  /// observed, and never exceed what the peer's sender side framed.
  /// Call after run() on a host whose processes were built by
  /// arq_factory.
  void check_arq(ProcessHost& host);

  bool ok() const { return violations_.empty() && suppressed_ == 0; }
  const std::vector<std::string>& violations() const {
    return violations_;
  }
  /// Violations dropped beyond Options::max_violations.
  std::size_t suppressed() const { return suppressed_; }

  /// Garbled sends recorded via on_garble.
  std::int64_t garbles_seen() const { return garbles_seen_; }
  /// Checksum-invalid ARQ frames observed at delivery. The masking rule
  /// (check_final) requires, per channel, invalid deliveries <=
  /// recorded garbles: garbling is the only legal source of invalid
  /// frames, and everything the garbler touched that ARQ *can* mask is
  /// exactly what its checksums catch.
  std::int64_t invalid_arq_frames_seen() const { return invalid_seen_; }

  /// Heap bytes held by the channel, replay and tally stores (violation
  /// strings excluded). Mirrors Graph::memory_bytes(): capacities, plus
  /// one tree node per rare-event set entry.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  // One outstanding send: its committed arrival time and the next slot
  // of the same channel's list (or of the free list).
  struct Slot {
    double arrival;
    std::uint32_t next;
  };
  // A directed channel's outstanding sends, oldest at head.
  struct Fifo {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  void ensure_sized(const Network& net);
  void report(std::string what);
  // Reports a hook call on an edge the graph does not have ("<what> on
  // out-of-range edge ...") and returns false, so the hook can bail out
  // before indexing a per-edge table with it.
  bool edge_in_range(const Network& net, const char* what, NodeId from,
                     EdgeId e);
  // Directed channel id for a message from `from` over in-range edge e.
  std::size_t channel_of(const Network& net, NodeId from, EdgeId e) const;
  void push_send(Fifo& chan, double arrival);
  void pop_send(Fifo& chan);

  Options opts_;
  std::vector<std::string> violations_;
  std::size_t suppressed_ = 0;

  // Outstanding arrival times per directed channel, in send order: a
  // list per channel through the shared slot arena.
  std::vector<Fifo> channels_;
  std::vector<Slot> slots_;
  std::uint32_t free_slot_ = kNoSlot;
  std::int64_t in_flight_ = 0;
  // Phantom (duplicate) arrivals keyed by (channel, arrival), unordered
  // within a channel: a duplicate is clamped behind the original but
  // later traffic can still be delivered around it.
  std::multiset<std::pair<std::size_t, double>> dup_arrivals_;
  // Independent per-channel replay of ARQ DATA frames: next expected
  // seq, and the out-of-order (channel, seq) pairs seen so far. Only
  // checksum-valid frames replay — receivers discard invalid ones, and
  // so does the model.
  std::vector<std::int64_t> arq_expected_;
  std::set<std::pair<std::size_t, std::int64_t>> arq_buffered_;
  // Garbled sends and invalid-ARQ-frame deliveries per directed
  // channel (the masking rule compares them in check_final).
  std::vector<std::int64_t> garbled_sent_;
  std::vector<std::int64_t> arq_invalid_;
  // Independent per-edge tallies, indexed [class][edge].
  std::vector<std::int64_t> sent_algorithm_;
  std::vector<std::int64_t> sent_control_;
  std::vector<std::int64_t> sent_recovery_;
  std::int64_t deliveries_seen_ = 0;
  std::int64_t self_schedules_seen_ = 0;
  std::int64_t drops_seen_ = 0;
  std::int64_t dups_seen_ = 0;
  std::int64_t garbles_seen_ = 0;
  std::int64_t invalid_seen_ = 0;
  const FaultInjector* faults_ = nullptr;
  double last_now_ = 0.0;
  // Node currently having a message delivered to it; sends by it are
  // reactive and exempt from the post-finish rule.
  NodeId delivering_to_ = kNoNode;
  bool sized_ = false;
};

}  // namespace csca
