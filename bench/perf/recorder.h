// Per-layer attribution for one sequential Network run, recorded from
// outside the engine.
//
// The traced rep attaches a Recorder as the network's observer. It logs
// the queue's push/pop stream, every delay draw and every send attempt,
// and forwards each hook to an optional inner observer (the invariant
// checker), measuring the time spent there. After the run the recorded
// streams are replayed through the layers' own public entry points:
//
//   * queue  — the push/pop sequence through a fresh EventHeap<Message>;
//   * delay  — DelayModel::delay_on / delay_keyed over the recorded sends;
//   * fault  — FaultInjector::send_fate and the crashed / link_down
//              liveness lookups over the recorded send attempts.
//
// Each replay also checks itself against the recording (pop order, delay
// bits, fate counts), so a replay that measured something other than
// what the run did is reported as a failure naming its layer. The
// replay times are estimates of the in-run cost: a replay runs the
// layer's code on the same inputs, but with warmer caches than the run,
// where the handlers evict them between calls.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_injector.h"
#include "sim/delay.h"
#include "sim/network.h"

namespace csca::perf {

/// Cost of one steady_clock::now() pair, measured once per process;
/// subtracted from fine-grained timed regions.
double clock_pair_seconds();

class Recorder final : public InvariantObserver {
 public:
  /// `with_times`: also keep each send attempt's send and arrival time
  /// (the fault replay's liveness lookups need them).
  Recorder(const Graph& g, bool with_times, InvariantObserver* inner);
  // The network holds this observer's address.
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void on_send(const Network& net, NodeId from, EdgeId e, MsgClass cls,
               double delay, double arrival) override;
  void on_self_schedule(const Network& net, NodeId v, double delay) override;
  void on_deliver(const Network& net, NodeId to, const Message& m,
                  double t) override;
  void on_finish(const Network& net, NodeId v, double t) override;
  void on_drop(const Network& net, NodeId from, EdgeId e, MsgClass cls,
               FaultDropReason reason) override;
  void on_duplicate(const Network& net, NodeId from, EdgeId e,
                    double arrival) override;
  void on_garble(const Network& net, NodeId from, EdgeId e,
                 double arrival) override;

  struct Push {
    double t = 0;
    std::uint32_t aux = 0;  // the engine's sequence tie-break
    NodeId from = kNoNode;
    EdgeId edge = kNoEdge;  // kNoEdge for self-deliveries
  };
  /// One send attempt: queued (d >= 0) or swallowed by a fault (d < 0).
  struct Attempt {
    double d = -1;
    EdgeId e = kNoEdge;
    NodeId from = kNoNode;
    std::uint32_t count = 0;  // per-channel attempt index (keyed draws)
  };
  struct AttemptTimes {
    double now = 0;
    double arrival = -1;  // -1 when dropped at send time
  };
  /// A phantom duplicate, keyed by its original's channel attempt.
  struct Dup {
    EdgeId e = kNoEdge;
    NodeId from = kNoNode;
    std::uint32_t count = 0;
  };

  const std::vector<Push>& pushes() const { return pushes_; }
  /// For each pop, how many pushes preceded it.
  const std::vector<std::uint32_t>& pops() const { return pops_; }
  /// Order-sensitive hash of the delivered (t, from, edge) sequence.
  std::uint64_t pop_hash() const { return pop_hash_; }
  const std::vector<Attempt>& attempts() const { return attempts_; }
  const std::vector<AttemptTimes>& attempt_times() const { return times_; }
  const std::vector<Dup>& dups() const { return dups_; }
  std::int64_t channel_drops() const { return channel_drops_; }
  std::int64_t garbles() const { return garbles_; }
  std::int64_t sends() const { return sends_; }

  /// Time inside the inner observer's hooks, net of clock overhead.
  double inner_seconds() const { return inner_s_; }
  std::int64_t inner_calls() const { return inner_calls_; }

 private:
  std::uint32_t next_count(NodeId from, EdgeId e);
  void record_push(double t, NodeId from, EdgeId edge);
  // Calls `hook` on the inner observer, if any, adding the time spent
  // there (net of the clock reads bracketing it) to inner_s_.
  template <typename Hook>
  void forward(Hook&& hook);

  const Graph& g_;
  bool with_times_;
  InvariantObserver* inner_;
  std::vector<Push> pushes_;
  std::vector<std::uint32_t> pops_;
  std::uint64_t pop_hash_ = 0;
  std::vector<Attempt> attempts_;
  std::vector<AttemptTimes> times_;
  std::vector<Dup> dups_;
  std::vector<std::uint32_t> channel_count_;
  std::int64_t channel_drops_ = 0;
  std::int64_t garbles_ = 0;
  std::int64_t sends_ = 0;
  double inner_s_ = 0;
  std::int64_t inner_calls_ = 0;
};

/// Folds one delivery into an order-sensitive hash (shared by the
/// recorder and the queue replay).
std::uint64_t fold_delivery(std::uint64_t h, double t, NodeId from,
                            EdgeId edge);

struct QueueReplay {
  double seconds = 0;       // whole replay, push + pop
  double push_seconds = 0;  // split of `seconds` by per-batch timing
  double pop_seconds = 0;
  std::size_t peak_depth = 0;
  bool order_ok = false;
};

/// Replays the recorded stream through a fresh EventHeap<Message>
/// reserved to `reserve` slots, as the Network reserves its own.
QueueReplay replay_queue(const Recorder& rec, std::size_t reserve);

struct DelayReplay {
  double seconds = 0;
  std::int64_t draws = 0;
  bool bits_ok = false;
};

/// Redraws every delay of the run. Unkeyed runs draw from a fresh
/// Rng(seed) in send order; keyed runs through delay_keyed with the
/// engine's keys (duplicates through faults->dup_delay_key).
DelayReplay replay_delays(const Recorder& rec, const Graph& g,
                          DelayModel& model, bool keyed, std::uint64_t seed,
                          const FaultInjector* faults);

struct FaultReplay {
  double fate_seconds = 0;
  double liveness_seconds = 0;
  std::int64_t fates = 0;
  std::int64_t liveness_calls = 0;
  std::int64_t drops = 0;
  std::int64_t dups = 0;
  std::int64_t garbles = 0;
  /// Liveness lookups that answered "crashed" or "down".
  std::int64_t liveness_hits = 0;
};

/// Re-asks the injector every question the engine asked on the send
/// path. Requires a Recorder built with_times.
FaultReplay replay_faults(const Recorder& rec, const Graph& g,
                          const FaultInjector& faults);

}  // namespace csca::perf
