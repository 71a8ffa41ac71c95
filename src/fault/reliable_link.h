// Per-edge ARQ: a reliable-link layer over faulty channels.
//
// The paper's protocols assume reliable FIFO links. A FaultPlan breaks
// that assumption (drops, duplicates, crashes, outages, garbles); this
// layer restores it, at a measurable weighted cost. ArqLinks is the one
// per-link state machine: every inner send becomes a sequence-numbered
// DATA frame, every DATA is answered with a cumulative ACK, unacked DATA
// is retransmitted on a deterministic exponential-backoff timer, and
// the inner protocol sees exactly the paper's channel model:
// exactly-once, FIFO-per-channel delivery. Two hosts drive it, one per
// time domain — ArqHost (below) on the asynchronous engines, and
// SyncArqHost (fault/sync_reliable_link.h) in pulses.
//
// Cost accounting (the point of the exercise): the *first* copy of a
// DATA frame is billed in the inner send's own ledger class, so the
// algorithm ledger of a faulted+ARQ run equals the protocol's own send
// pattern; every retransmission and every ACK is billed as
// MsgClass::kControl. The reliability overhead factor is therefore
// directly readable from the ledger as total_cost / algorithm_cost
// (see docs/faults.md and the "fault" degradation table).
//
// Crash detection: a DATA frame retransmitted past max_retries marks
// the link peer-dead — retransmission stops, later inner sends on the
// edge are suppressed, and the run quiesces instead of hanging. The
// signal surfaces through peer_dead() / any_peer_dead().
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/message.h"
#include "util/require_lit.h"

namespace csca {

/// ARQ frame type tags. Inner protocols must not use these values.
enum ArqTag : int {
  kArqData = 71001,   ///< [seq, inner type, inner payload..., checksum]
  kArqAck = 71002,    ///< [cumulative ack: next seq expected, checksum]
  kArqTimer = 71003,  ///< self only: [edge, seq, attempt]
  kArqSelf = 71004,   ///< wrapped inner self-delivery: [inner type, ...]
};

// Wire framing, shared by both hosts and by the invariant checker's
// replay. Every frame carries a trailing checksum (fault/frame_checksum.h)
// that detects any single-word garble. Receivers silently discard
// invalid frames: an invalid DATA gets no ACK, so the sender's
// retransmission heals it — a garble is masked like a drop, at
// retransmission cost. What ARQ can NOT mask: garbles on unframed
// traffic, and a garble-induced retransmit exhaustion still declares
// the peer dead. See docs/faults.md.

/// Builds the DATA frame [seq, inner type, inner payload..., ck].
Message arq_make_data(std::int64_t seq, const Message& inner);

/// Builds the ACK frame [ack, ck].
Message arq_make_ack(std::int64_t ack);

/// True iff m is a structurally complete kArqData / kArqAck frame whose
/// trailing checksum matches the rest of the frame.
bool arq_frame_valid(const Message& m);

struct ArqConfig {
  /// Initial retransmit timeout on edge e is timeout_factor * w(e). A
  /// full data+ack round trip takes 2 w(e) under ExactDelay, so the
  /// default leaves a 4x margin before the first spurious retransmit.
  double timeout_factor = 8.0;
  /// Timeout multiplier per retransmission (exponential backoff).
  double backoff = 2.0;
  /// Retransmissions before the peer is declared dead. Attempt numbers
  /// run 0 (first transmission) through max_retries.
  int max_retries = 12;
  /// Optional shared control-cost meter. When set, every control-class
  /// wire transmission the host performs (ACKs, retransmissions, and
  /// first copies of inner kControl sends) adds w(e) to the meter's
  /// `billed` count at send time — the feedback path that lets the §5
  /// controller's admission see physical retransmit cost (RunEnv::meter
  /// threads the same meter into ControllerConfig). Billed whether or not the
  /// channel then swallows the copy, matching the engines' ledger rule
  /// that transmission attempts are always charged.
  std::shared_ptr<ControlMeter> meter;
};

/// One node's ARQ links, one per incident edge, generic over the time
/// domain the retransmit schedule is recorded in (virtual time for
/// ArqHost, pulses for SyncArqHost). It frames, acknowledges, delivers
/// in order, decides retransmissions and bills the control meter; the
/// host owns the wire, the timers and the inner process.
template <typename Time>
class ArqLinks {
 public:
  // Per-incident-edge link state, for tests and the invariant checker.
  // All take an edge incident to this node.
  std::int64_t data_sent(EdgeId e) const {  ///< DATA seqs consumed
    return link(e).next_seq;
  }
  std::int64_t next_expected_in(EdgeId e) const { return link(e).expected; }
  std::int64_t delivered_up(EdgeId e) const {  ///< inner deliveries
    return link(e).delivered;
  }
  std::int64_t retransmit_count(EdgeId e) const {
    return static_cast<std::int64_t>(retransmit_log(e).size());
  }
  /// True once retransmission on e exhausted max_retries.
  bool peer_dead(EdgeId e) const { return link(e).dead; }
  bool any_peer_dead() const {
    return std::any_of(links_.begin(), links_.end(),
                       [](const Link& l) { return l.dead; });
  }
  /// Inner sends suppressed because the link was already peer-dead.
  std::int64_t suppressed_sends(EdgeId e) const { return link(e).suppressed; }
  /// Frames arriving on e that failed checksum validation and were
  /// silently discarded (healed by retransmission).
  std::int64_t corrupt_frames(EdgeId e) const { return link(e).corrupt; }

  /// Links whose cold block (retransmission log, out-of-order buffer)
  /// has been allocated; 0 on a node whose channels never misbehaved.
  std::size_t cold_blocks() const {
    return static_cast<std::size_t>(
        std::count_if(links_.begin(), links_.end(),
                      [](const Link& l) { return l.cold != nullptr; }));
  }

  /// Heap bytes of this node's links: the hot records, the unacked DATA
  /// frames (reserved capacity and payload spills) and the cold blocks
  /// of the links that needed one.
  std::size_t memory_bytes() const {
    // libstdc++'s red-black tree node: a 32 B header (colour plus three
    // links) padded to the entry's alignment, then the entry.
    using Entry = std::pair<const std::int64_t, Message>;
    constexpr std::size_t kBufferedNode =
        std::max<std::size_t>(32, alignof(Entry)) + sizeof(Entry);
    std::size_t bytes = links_.capacity() * sizeof(Link);
    for (const Link& l : links_) {
      bytes += l.unacked.capacity() * sizeof(Message);
      for (const Message& f : l.unacked) bytes += spill_bytes(f);
      if (!l.cold) continue;
      bytes += sizeof(Cold) + l.cold->retransmits.capacity() * sizeof(Time);
      for (const auto& [seq, m] : l.cold->buffered) {
        bytes += kBufferedNode + spill_bytes(m);
      }
    }
    return bytes;
  }

 protected:
  // A link is split by how often it is touched. The hot record holds
  // what every frame reads or writes: counters, the dead flag and the
  // unacked DATA frames. What only a faulty channel needs — the
  // retransmission log and the out-of-order buffer — sits in a Cold
  // block allocated the first time the link retransmits or buffers, so
  // a link whose channel never misbehaved costs its 80 B record plus
  // one 64 B slot per frame it ever had unacked at once.
  struct Cold {
    std::vector<Time> retransmits;  ///< when each retransmission fired
    // Out-of-order inner msgs. Ordered map as a determinism proof
    // sketch (DET-1, docs/analysis.md): the drain walks find(expected)
    // in ascending seq, so delivery order is the sender's send order
    // regardless of the arrival schedule the injector produced.
    std::map<std::int64_t, Message> buffered;
  };
  struct Link {
    EdgeId e = kNoEdge;
    bool dead = false;
    // Sender side.
    std::int64_t next_seq = 0;
    std::int64_t suppressed = 0;
    // Receiver side.
    std::int64_t expected = 0;
    std::int64_t delivered = 0;
    std::int64_t corrupt = 0;  ///< invalid frames discarded
    /// DATA frames kept for retransmission; a frame's seq is its first
    /// word (arq_make_data).
    std::vector<Message> unacked;
    std::unique_ptr<Cold> cold;  ///< null until first needed
  };
  static_assert(sizeof(Link) <= 80, "an ARQ link's hot record is 80 B");

  explicit ArqLinks(ArqConfig cfg) : cfg_(std::move(cfg)) {
    require_lit(cfg_.timeout_factor > 0 && cfg_.backoff >= 1.0 &&
                    cfg_.max_retries >= 0,
                "ArqConfig requires timeout_factor > 0, backoff >= 1, "
                "max_retries >= 0");
  }

  /// Binds to the graph and this node's incident edges (from on_start).
  void attach(const Graph& g, std::span<const EdgeId> incident) {
    graph_ = &g;
    links_ = std::vector<Link>(incident.size());
    for (std::size_t i = 0; i < incident.size(); ++i) {
      links_[i].e = incident[i];
    }
  }

  /// Frames inner message m for edge e and keeps it unacked. The host
  /// sends the returned DATA frame (seq in data[0]) in class cls — the
  /// first copy rides in the inner send's own class, so the algorithm
  /// ledger records the protocol's own sends — and arms the attempt-0
  /// timer for its seq. nullptr when the peer is dead: the send is
  /// suppressed.
  const Message* frame(EdgeId e, const Message& m, MsgClass cls) {
    Link& l = link(e);
    if (l.dead) {
      ++l.suppressed;
      return nullptr;
    }
    l.unacked.push_back(arq_make_data(l.next_seq++, m));
    if (cls == MsgClass::kControl) bill(e);
    return &l.unacked.back();
  }

  /// Handles a DATA or ACK frame arriving on m.edge. Each inner message
  /// that comes into order goes up through deliver(const Message&), in
  /// the sender's send order. Returns the cumulative ACK the host must
  /// send back on m.edge (billed already), or -1 when none is owed: an
  /// ACK frame, or a frame the checksum rejected.
  template <typename Deliver>
  std::int64_t receive(const Message& m, Deliver&& deliver) {
    require_lit(m.type == kArqData || m.type == kArqAck,
                "ARQ host received a foreign message type");
    Link& l = link(m.edge);
    if (!arq_frame_valid(m)) {
      // Garbled in transit: discard silently. An invalid DATA is not
      // acknowledged, so the sender's retransmission timer heals the
      // loss; an invalid ACK is healed by the next (cumulative) one.
      ++l.corrupt;
      return -1;
    }
    // A valid frame holds its seq/ack in word 0 (and a DATA frame its
    // inner type in word 1), so it is read unchecked from here on.
    if (m.type == kArqAck) {
      on_ack(l, m.data[0]);
      return -1;
    }
    const std::int64_t seq = m.data[0];
    if (seq == l.expected) {
      ++l.expected;
      ++l.delivered;
      deliver(unwrap(m));
      // Drain buffered successors that are now in order. links_ is
      // fixed at attach and a cold block is never freed, so both
      // references stay valid across handlers.
      if (l.cold) {
        auto& buffered = l.cold->buffered;
        while (true) {
          const auto it = buffered.find(l.expected);
          if (it == buffered.end()) break;
          const Message next = std::move(it->second);
          buffered.erase(it);
          ++l.expected;
          ++l.delivered;
          deliver(next);
        }
      }
    } else if (seq > l.expected) {
      // Out of order (retransmissions and duplicates can leapfrog):
      // hold the inner message until the gap fills.
      auto& buffered = cold(l).buffered;
      if (!buffered.contains(seq)) buffered.emplace(seq, unwrap(m));
    }
    // A stale duplicate below the cumulative ack delivers nothing, but
    // is re-acknowledged all the same: a lost ACK is healed by the
    // duplicate DATA the ensuing retransmission produces.
    bill(m.edge);
    return l.expected;
  }

  /// Timer (e, seq, attempt) fired at now. Returns the DATA frame the
  /// host must resend in kControl (billed and logged already) and
  /// re-arm at attempt + 1; nullptr when seq was acked, the link is
  /// dead, or the retries ran out — which declares the peer dead.
  const Message* retransmit(EdgeId e, std::int64_t seq, int attempt,
                            Time now) {
    Link& l = link(e);
    if (l.dead) return nullptr;
    const auto it =
        std::find_if(l.unacked.begin(), l.unacked.end(),
                     [seq](const Message& f) { return f.data[0] == seq; });
    if (it == l.unacked.end()) return nullptr;  // acked in the meantime
    if (attempt >= cfg_.max_retries) {
      // Retransmit exhaustion: the crash signal — the run quiesces
      // instead of retrying forever.
      l.dead = true;
      l.unacked.clear();
      return nullptr;
    }
    bill(e);
    cold(l).retransmits.push_back(now);
    return &*it;
  }

  /// When each retransmission on e fired; empty for a link that never
  /// retransmitted.
  const std::vector<Time>& retransmit_log(EdgeId e) const {
    static const std::vector<Time> kNone;
    const Link& l = link(e);
    return l.cold ? l.cold->retransmits : kNone;
  }

  Link& link(EdgeId e) {
    for (Link& l : links_) {
      if (l.e == e) return l;
    }
    require_lit(false, "edge is not incident to this ARQ host");
    return links_.front();
  }
  const Link& link(EdgeId e) const {
    return const_cast<ArqLinks*>(this)->link(e);
  }

  /// w(e) of an edge that link(e) has matched, so e is in range.
  Weight weight(EdgeId e) const {
    return graph_->edges()[static_cast<std::size_t>(e)].w;
  }

  ArqConfig cfg_;
  const Graph* graph_ = nullptr;

 private:
  static Cold& cold(Link& l) {
    if (!l.cold) l.cold = std::make_unique<Cold>();
    return *l.cold;
  }

  static void on_ack(Link& l, std::int64_t ack) {
    std::erase_if(l.unacked,
                  [ack](const Message& f) { return f.data[0] < ack; });
  }

  /// The inner message of a valid DATA frame [seq, type, payload..., ck].
  static Message unwrap(const Message& f) {
    Message inner(static_cast<int>(f.data[1]),
                  Payload(f.data.begin() + 2, f.data.end() - 1));
    inner.from = f.from;
    inner.edge = f.edge;
    return inner;
  }

  static std::size_t spill_bytes(const Message& m) {
    return m.data.is_inline() ? 0 : m.data.capacity() * sizeof(std::int64_t);
  }

  /// Meter hook for a control-class wire send on a matched link's edge
  /// (no-op without a meter).
  void bill(EdgeId e) {
    if (cfg_.meter) cfg_.meter->billed += weight(e);
  }

  std::vector<Link> links_;  ///< one per incident edge, insertion order
};

/// Wraps one node's process behind the ARQ layer on the asynchronous
/// engines. Built by arq_factory; reached after a run via
/// ProcessHost::process_as<ArqHost>(v). The host adds the time adapter:
/// retransmit timers are kArqTimer self-messages due after
/// timeout_factor * w(e) * backoff^attempt, inner self-schedules travel
/// framed as kArqSelf, and the inner process reaches the wire through
/// ArqHost's EngineBackend (the controller hosts' adapter pattern), so
/// it runs unmodified on the Network, the synchronizer stacks and the
/// sharded engine.
class ArqHost final : public Process,
                      public ArqLinks<double>,
                      private EngineBackend {
 public:
  ArqHost(NodeId self, std::unique_ptr<Process> inner, ArqConfig cfg);

  void on_start(Context& ctx) override;
  void on_message(Context& ctx, const Message& m) override;

  /// The wrapped protocol process (post-run state inspection).
  Process& inner() { return *inner_; }
  const Process& inner() const { return *inner_; }

  /// Virtual times at which each retransmission of edge e fired, in
  /// order — the backoff schedule, deterministic per seed.
  const std::vector<double>& retransmit_times(EdgeId e) const {
    return retransmit_log(e);
  }

 private:
  double timeout(EdgeId e, int attempt) const;

  // EngineBackend for the inner process: frame and forward.
  double engine_now() const override;
  const Graph& engine_graph() const override;
  void engine_send(NodeId from, EdgeId e, Message m, MsgClass cls) override;
  void engine_schedule_self(NodeId v, double delay, Message m) override;
  void engine_finish(NodeId v) override;

  NodeId self_;
  std::unique_ptr<Process> inner_;
  Context* cur_ = nullptr;  ///< the real context, valid during hooks
};

/// Wraps every process `inner` builds behind the ARQ layer.
ProcessFactory arq_factory(ProcessFactory inner, ArqConfig cfg = {});

/// Convenience accessors for wrapped hosts.
ArqHost& arq_host(ProcessHost& host, NodeId v);
Process& arq_inner(ProcessHost& host, NodeId v);

}  // namespace csca
