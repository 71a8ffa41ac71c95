#include "recorder.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "sim/event_heap.h"

namespace csca::perf {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t channel_of(const Graph& g, NodeId from, EdgeId e) {
  return static_cast<std::size_t>(2 * e) + (from == g.edge(e).u ? 0 : 1);
}

}  // namespace

double clock_pair_seconds() {
  static const double cost = [] {
    // Median over batches of the mean empty-region length.
    constexpr int kBatches = 15;
    constexpr int kPairs = 2000;
    std::vector<double> means;
    for (int b = 0; b < kBatches; ++b) {
      double total = 0;
      for (int i = 0; i < kPairs; ++i) {
        const auto t0 = Clock::now();
        total += std::chrono::duration<double>(Clock::now() - t0).count();
      }
      means.push_back(total / kPairs);
    }
    std::nth_element(means.begin(), means.begin() + kBatches / 2, means.end());
    return means[kBatches / 2];
  }();
  return cost;
}

std::uint64_t fold_delivery(std::uint64_t h, double t, NodeId from,
                            EdgeId edge) {
  h = mix64(h ^ std::bit_cast<std::uint64_t>(t));
  h = mix64(h ^ static_cast<std::uint32_t>(from));
  return mix64(h ^ static_cast<std::uint32_t>(edge));
}

Recorder::Recorder(const Graph& g, bool with_times, InvariantObserver* inner)
    : g_(g),
      with_times_(with_times),
      inner_(inner),
      channel_count_(static_cast<std::size_t>(2 * g.edge_count()), 0) {}

std::uint32_t Recorder::next_count(NodeId from, EdgeId e) {
  return channel_count_[channel_of(g_, from, e)]++;
}

void Recorder::record_push(double t, NodeId from, EdgeId edge) {
  pushes_.push_back(
      Push{t, static_cast<std::uint32_t>(pushes_.size()), from, edge});
}

template <typename Hook>
void Recorder::forward(Hook&& hook) {
  if (inner_ == nullptr) return;
  const auto t0 = Clock::now();
  hook(*inner_);
  inner_s_ += since(t0) - clock_pair_seconds();
  ++inner_calls_;
}

void Recorder::on_send(const Network& net, NodeId from, EdgeId e,
                       MsgClass cls, double delay, double arrival) {
  attempts_.push_back(Attempt{delay, e, from, next_count(from, e)});
  if (with_times_) times_.push_back(AttemptTimes{net.now(), arrival});
  record_push(arrival, from, e);
  ++sends_;
  forward([&](InvariantObserver& o) {
    o.on_send(net, from, e, cls, delay, arrival);
  });
}

void Recorder::on_self_schedule(const Network& net, NodeId v, double delay) {
  record_push(net.now() + delay, v, kNoEdge);
  forward([&](InvariantObserver& o) { o.on_self_schedule(net, v, delay); });
}

void Recorder::on_deliver(const Network& net, NodeId to, const Message& m,
                          double t) {
  pops_.push_back(static_cast<std::uint32_t>(pushes_.size()));
  pop_hash_ = fold_delivery(pop_hash_, t, m.from, m.edge);
  forward([&](InvariantObserver& o) { o.on_deliver(net, to, m, t); });
}

void Recorder::on_finish(const Network& net, NodeId v, double t) {
  forward([&](InvariantObserver& o) { o.on_finish(net, v, t); });
}

void Recorder::on_drop(const Network& net, NodeId from, EdgeId e,
                       MsgClass cls, FaultDropReason reason) {
  attempts_.push_back(Attempt{-1, e, from, next_count(from, e)});
  if (with_times_) times_.push_back(AttemptTimes{net.now(), -1});
  if (reason == FaultDropReason::kChannelDrop) ++channel_drops_;
  forward([&](InvariantObserver& o) { o.on_drop(net, from, e, cls, reason); });
}

void Recorder::on_duplicate(const Network& net, NodeId from, EdgeId e,
                            double arrival) {
  // The phantom shares its original's attempt index, which the original
  // has just consumed.
  dups_.push_back(Dup{e, from, channel_count_[channel_of(g_, from, e)] - 1});
  record_push(arrival, from, e);
  forward([&](InvariantObserver& o) { o.on_duplicate(net, from, e, arrival); });
}

void Recorder::on_garble(const Network& net, NodeId from, EdgeId e,
                         double arrival) {
  ++garbles_;
  forward([&](InvariantObserver& o) { o.on_garble(net, from, e, arrival); });
}

namespace {

void push_recorded(EventHeap<Message>& heap, const Recorder::Push& p) {
  Message m;
  m.from = p.from;
  m.edge = p.edge;
  heap.push(HeapKey{p.t, p.aux}, std::move(m));
}

}  // namespace

QueueReplay replay_queue(const Recorder& rec, std::size_t reserve) {
  QueueReplay out;
  const std::vector<Recorder::Push>& pushes = rec.pushes();
  const std::vector<std::uint32_t>& pops = rec.pops();

  // Pass 1: the whole stream under one timer — the queue's total.
  {
    EventHeap<Message> heap;
    heap.reserve(reserve);
    std::size_t p = 0;
    const auto t0 = Clock::now();
    for (const std::uint32_t before : pops) {
      for (; p < before; ++p) push_recorded(heap, pushes[p]);
      heap.top_key();
      heap.pop();
    }
    out.seconds = since(t0);
    out.peak_depth = heap.peak_size();
    out.order_ok = p == pushes.size() && heap.empty();
  }

  // Pass 2: the same stream with each push batch and each pop timed,
  // to split the total; also checks the pop order against the run.
  EventHeap<Message> heap;
  heap.reserve(reserve);
  const double pair = clock_pair_seconds();
  double push_s = 0;
  double pop_s = 0;
  std::uint64_t h = 0;
  std::size_t p = 0;
  for (const std::uint32_t before : pops) {
    if (p < before) {
      const auto t0 = Clock::now();
      for (; p < before; ++p) push_recorded(heap, pushes[p]);
      push_s += since(t0) - pair;
    }
    const auto t0 = Clock::now();
    const HeapKey key = heap.top_key();
    const Message m = heap.pop();
    pop_s += since(t0) - pair;
    h = fold_delivery(h, key.t, m.from, m.edge);
  }
  out.order_ok = out.order_ok && h == rec.pop_hash();
  push_s = std::max(push_s, 0.0);
  pop_s = std::max(pop_s, 0.0);
  const double split = push_s + pop_s > 0 ? push_s / (push_s + pop_s) : 0.5;
  out.push_seconds = out.seconds * split;
  out.pop_seconds = out.seconds - out.push_seconds;
  return out;
}

DelayReplay replay_delays(const Recorder& rec, const Graph& g,
                          DelayModel& model, bool keyed, std::uint64_t seed,
                          const FaultInjector* faults) {
  DelayReplay out;
  bool ok = true;
  double dup_sum = 0;
  Rng rng(seed);
  const auto t0 = Clock::now();
  for (const Recorder::Attempt& a : rec.attempts()) {
    if (a.d < 0) continue;
    const Edge& edge = g.edge(a.e);
    const double d =
        keyed ? model.delay_keyed(
                    a.e, edge.w,
                    channel_delay_key(seed, channel_of(g, a.from, a.e),
                                      a.count))
              : model.delay_on(a.e, edge.w, rng);
    ok = ok && std::bit_cast<std::uint64_t>(d) ==
                   std::bit_cast<std::uint64_t>(a.d);
    ++out.draws;
  }
  if (keyed && faults != nullptr) {
    for (const Recorder::Dup& dup : rec.dups()) {
      const std::size_t ch = channel_of(g, dup.from, dup.e);
      dup_sum += model.delay_keyed(dup.e, g.weight(dup.e),
                                   faults->dup_delay_key(ch, dup.count));
      ++out.draws;
    }
  }
  out.seconds = since(t0);
  // Unkeyed draws share one stream with duplicate delays, which this
  // replay does not reproduce: unkeyed runs must be fault-free. Phantom
  // delays are not reported by the engine, so they are only checked
  // for range.
  out.bits_ok = ok && dup_sum >= 0 && (keyed || rec.dups().empty());
  return out;
}

FaultReplay replay_faults(const Recorder& rec, const Graph& g,
                          const FaultInjector& faults) {
  FaultReplay out;
  const std::vector<Recorder::Attempt>& attempts = rec.attempts();
  const std::vector<Recorder::AttemptTimes>& times = rec.attempt_times();

  auto t0 = Clock::now();
  for (const Recorder::Attempt& a : attempts) {
    const FaultInjector::SendFate fate =
        faults.send_fate(channel_of(g, a.from, a.e), a.count);
    out.drops += fate.drop;
    out.dups += fate.duplicate;
    out.garbles += fate.garble;
  }
  out.fate_seconds = since(t0);
  out.fates = static_cast<std::int64_t>(attempts.size());

  // The send path's liveness questions: sender crashed and link down at
  // send time, link down and receiver crashed at arrival time.
  require(times.size() == attempts.size(),
          "fault replay needs a recorder built with_times");
  t0 = Clock::now();
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    const Recorder::Attempt& a = attempts[i];
    out.liveness_hits += faults.crashed(a.from, times[i].now);
    out.liveness_hits += faults.link_down(a.e, times[i].now);
    out.liveness_calls += 2;
    if (times[i].arrival >= 0) {
      out.liveness_hits += faults.link_down(a.e, times[i].arrival);
      out.liveness_hits +=
          faults.crashed(g.other(a.e, a.from), times[i].arrival);
      out.liveness_calls += 2;
    }
  }
  out.liveness_seconds = since(t0);
  return out;
}

}  // namespace csca::perf
