// Per-edge ARQ in the pulse domain: the ArqLinks state machine
// (fault/reliable_link.h) behind a pulse-time adapter, for SyncProcess
// protocols running on a faulted SyncEngine.
//
// What the pulse host adds:
//
//   - Timeouts in whole transmissions: attempt a is due
//     max(1, round(timeout_factor * backoff^a)) * w(e) pulses after the
//     send, so every retransmission of an in-synch send lands on a pulse
//     divisible by w(e) and the wrapped protocol remains in-synch
//     (Def. 4.2). The defaults give 8w, 16w, 32w, ...
//   - Timers are pulse wakeups, not self-messages: due retransmissions
//     fire from on_wakeup, before any wakeup the inner protocol asked
//     for at the same pulse, and one engine wakeup serves them all. The
//     engine delivers messages before wakeups within a pulse, so an ACK
//     arriving at the timeout pulse cancels the retransmission.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "fault/reliable_link.h"
#include "sim/sync_process.h"

namespace csca {

/// Wraps one node's synchronous process behind the ARQ layer. Built by
/// sync_arq_factory; reached after a run via
/// SyncEngine::process_as<SyncArqHost>(v).
class SyncArqHost final : public SyncProcess,
                          public ArqLinks<std::int64_t> {
 public:
  SyncArqHost(NodeId self, std::unique_ptr<SyncProcess> inner,
              ArqConfig cfg);

  void on_start(SyncContext& ctx) override;
  void on_message(SyncContext& ctx, const Message& m) override;
  void on_wakeup(SyncContext& ctx) override;

  /// The wrapped protocol process (post-run state inspection).
  SyncProcess& inner() { return *inner_; }
  const SyncProcess& inner() const { return *inner_; }

  /// Pulses at which each retransmission on e fired, in order.
  const std::vector<std::int64_t>& retransmit_pulses(EdgeId e) const {
    return retransmit_log(e);
  }

 private:
  class VirtualCtx;

  struct Timer {
    EdgeId e = kNoEdge;
    std::int64_t seq = 0;
    int attempt = 0;
  };

  std::int64_t timeout_pulses(EdgeId e, int attempt) const;
  /// Registers a retransmit timer for (e, seq, attempt) and makes sure
  /// an engine wakeup is armed at its due pulse.
  void arm(SyncContext& ctx, EdgeId e, std::int64_t seq, int attempt);
  void inner_send(SyncContext& ctx, EdgeId e, Message m, MsgClass cls);
  void inner_wakeup(SyncContext& ctx, std::int64_t at_pulse);

  NodeId self_;
  std::unique_ptr<SyncProcess> inner_;
  // Determinism proof sketch (DET-1, docs/analysis.md): timers_ is
  // read only through find(p) at the firing pulse, and each pulse's
  // vector fires in arm order, so retransmit order is a pure function
  // of the run history. The two sets are point-inserted/erased, never
  // iterated — their order cannot reach message order at all.
  std::map<std::int64_t, std::vector<Timer>> timers_;  ///< by due pulse
  std::set<std::int64_t> armed_pulses_;   ///< engine wakeups requested
  std::set<std::int64_t> inner_wakeups_;  ///< pulses the inner asked for
};

/// Wraps every process `inner` builds behind the pulse-domain ARQ layer.
std::function<std::unique_ptr<SyncProcess>(NodeId)> sync_arq_factory(
    std::function<std::unique_ptr<SyncProcess>(NodeId)> inner,
    ArqConfig cfg = {});

}  // namespace csca
