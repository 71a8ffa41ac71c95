#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>

#include "bench_harness/json.h"
#include "bench_harness/sweep.h"
#include "bench_harness/tables.h"
#include "check/invariants.h"
#include "conn/flood.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/reliable_link.h"
#include "graph/families.h"
#include "graph/generators.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"
#include "recorder.h"
#include "seed_queue.h"
#include "sim/network.h"

namespace csca::perf {
namespace {

// Streams of the benchmark seed: graph weights, the engines' run seed
// (delay draws, fault fates), and the fault plan's salt.
std::uint64_t graph_seed(const Bench& b) {
  return derive_stream_seed(b.options().seed, 1);
}
std::uint64_t run_seed(const Bench& b) {
  return derive_stream_seed(b.options().seed, 2);
}
std::uint64_t fault_salt(const Bench& b) {
  return derive_stream_seed(b.options().seed, 3);
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

std::unique_ptr<DelayModel> uniform_delay() {
  return make_uniform_delay(0.1, 0.9);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Events, per-class message counts and weighted cost, and the
// completion time (as an exact hex float).
std::string ledger_digest(const RunStats& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "events=%lld,msgs=%lld/%lld/%lld,cost=%lld/%lld/%lld,time=%a",
                static_cast<long long>(s.events),
                static_cast<long long>(s.algorithm_messages),
                static_cast<long long>(s.control_messages),
                static_cast<long long>(s.recovery_messages),
                static_cast<long long>(s.algorithm_cost),
                static_cast<long long>(s.control_cost),
                static_cast<long long>(s.recovery_cost), s.completion_time);
  return buf;
}

// Self seconds per layer in one traced rep. The sequential engine's
// dispatch is the residual: step time minus the replayed queue, delay
// and fault estimates and the checker's hook time. It covers handlers,
// the FIFO clamp, billing and the recorder's own logging.
struct LayerTimes {
  double queue = 0;
  double delay = 0;
  double dispatch = 0;
  double fault = 0;
  double check = 0;
  double shard = 0;
  double tw = 0;
  double harness = 0;
  double pool = 0;
};

void emit_shares(Bench& b, const LayerTimes& lt, double run_s) {
  const std::pair<const char*, double> layers[] = {
      {"sim.queue.share", lt.queue},   {"sim.delay.share", lt.delay},
      {"sim.dispatch.share", lt.dispatch}, {"fault.share", lt.fault},
      {"check.share", lt.check},       {"par.shard.share", lt.shard},
      {"par.tw.share", lt.tw},         {"harness.share", lt.harness},
      {"par.pool.share", lt.pool},
  };
  double total = 0;
  for (const auto& [name, seconds] : layers) {
    b.sample(name, seconds / run_s, "fraction");
    total += seconds;
  }
  b.sample("trace.coverage", total / run_s, "fraction");
}

double percentile_ns(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

struct TracedRun {
  double run_s = 0;    // the whole loop
  double steps_s = 0;  // inside Network::step() only
};

// The traced form of Network::run(): one public step() at a time, each
// timed on its own. The loop's bookkeeping between steps is outside
// every layer and shows as trace.coverage below 1.
TracedRun traced_run(Bench& b, Network& net) {
  std::vector<std::uint32_t> step_ns;
  std::int64_t inside_ns = 0;
  TracedRun out;
  const auto start = Clock::now();
  for (;;) {
    const auto t0 = Clock::now();
    const bool more = net.step();
    const auto t1 = Clock::now();
    if (!more) break;
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    inside_ns += ns;
    step_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max())));
  }
  out.run_s = since(start);
  out.steps_s = 1e-9 * static_cast<double>(inside_ns);
  b.sample("sim.step_ns_p50", percentile_ns(step_ns, 0.5), "ns");
  b.sample("sim.step_ns_p99", percentile_ns(step_ns, 0.99), "ns");
  return out;
}

struct SeqInputs {
  const Graph& g;
  std::uint64_t seed;
  bool keyed;
  const FaultInjector* faults;
  std::unique_ptr<DelayModel> (*make_delay)();
};

// Replays the recorded run layer by layer (recorder.h), checks each
// replay against the run, and fills the sim/fault/check part of `lt`.
void replay_layers(Bench& b, const Network& net, const Recorder& rec,
                   const SeqInputs& in, double steps_s, LayerTimes& lt) {
  const double n = in.g.node_count();
  b.sample("sim.events", static_cast<double>(net.stats().events), "count");
  b.sample("sim.sends", static_cast<double>(rec.sends()), "count");
  b.sample("sim.state_bytes_per_node",
           static_cast<double>(net.process_state_bytes()) / n, "B");
  b.sample("sim.queue.peak_depth",
           static_cast<double>(net.peak_queue_depth()), "count");

  const QueueReplay q = replay_queue(
      rec, static_cast<std::size_t>(in.g.node_count()) +
               static_cast<std::size_t>(in.g.edge_count()));
  b.check(q.order_ok, "sim.queue: replayed pop order diverged from the run");
  b.check(q.peak_depth == net.peak_queue_depth(),
          "sim.queue: replayed peak depth " + std::to_string(q.peak_depth) +
              " differs from the run's " +
              std::to_string(net.peak_queue_depth()));
  b.sample("sim.queue.push_ns",
           1e9 * q.push_seconds / static_cast<double>(rec.pushes().size()),
           "ns");
  b.sample("sim.queue.pop_ns",
           1e9 * q.pop_seconds / static_cast<double>(rec.pops().size()), "ns");
  lt.queue = q.seconds;

  const std::unique_ptr<DelayModel> model = in.make_delay();
  const DelayReplay d =
      replay_delays(rec, in.g, *model, in.keyed, in.seed, in.faults);
  b.check(d.bits_ok, "sim.delay: replayed delays differ from the run's");
  b.sample("sim.delay.draw_ns",
           1e9 * d.seconds /
               static_cast<double>(std::max<std::int64_t>(d.draws, 1)),
           "ns");
  lt.delay = d.seconds;

  if (in.faults != nullptr) {
    const FaultReplay f = replay_faults(rec, in.g, *in.faults);
    const auto dups = static_cast<std::int64_t>(rec.dups().size());
    b.check(f.drops == rec.channel_drops() && f.dups == dups &&
                f.garbles == rec.garbles() && f.liveness_hits == 0,
            "fault: replayed fates (drops/dups/garbles " +
                std::to_string(f.drops) + "/" + std::to_string(f.dups) + "/" +
                std::to_string(f.garbles) + ", liveness hits " +
                std::to_string(f.liveness_hits) + ") differ from the run's (" +
                std::to_string(rec.channel_drops()) + "/" +
                std::to_string(dups) + "/" + std::to_string(rec.garbles()) +
                ")");
    b.sample("fault.fate_ns",
             1e9 * f.fate_seconds / static_cast<double>(f.fates), "ns");
    b.sample("fault.liveness_ns",
             1e9 * f.liveness_seconds / static_cast<double>(f.liveness_calls),
             "ns");
    b.sample("fault.drops", static_cast<double>(rec.channel_drops()), "count");
    b.sample("fault.dups", static_cast<double>(dups), "count");
    b.sample("fault.garbles", static_cast<double>(rec.garbles()), "count");
    lt.fault = f.fate_seconds + f.liveness_seconds;
  }
  if (rec.inner_calls() > 0) {
    b.sample("check.hook_ns",
             1e9 * rec.inner_seconds() / static_cast<double>(rec.inner_calls()),
             "ns");
    lt.check += rec.inner_seconds();
  }
  lt.dispatch = steps_s - lt.queue - lt.delay - lt.fault - rec.inner_seconds();
  if (!b.smoke()) {
    b.check(lt.dispatch >= 0,
            "trace: replayed queue/delay/fault time exceeds the measured "
            "step time, so the per-layer split is invalid");
  }
}

// One traced rep of a fault-free sequential workload: the run with the
// recorder attached, then the replays. Returns the run's ledger.
RunStats traced_sequential(Bench& b, int rep_span, Network& net,
                           const SeqInputs& in) {
  Recorder rec(in.g, false, nullptr);
  net.set_observer(&rec);
  TracedRun run;
  {
    Span s(b, "run", rep_span);
    run = traced_run(b, net);
  }
  LayerTimes lt;
  {
    Span s(b, "replay", rep_span);
    replay_layers(b, net, rec, in, run.steps_s, lt);
  }
  b.sample("run_s", run.run_s, "s");
  emit_shares(b, lt, run.run_s);
  return net.stats();
}

// Setup common to the sequential workloads: graph build timed on its
// own, and the CSR index built here rather than inside the timed run.
void sample_graph(Bench& b, const Graph& g, double build_s) {
  b.sample("graph.build_s", build_s, "s");
  b.sample("graph.bytes_per_node",
           static_cast<double>(g.memory_bytes()) / g.node_count(), "B");
}

// ------------------------------------------------------------ storm_deep

void storm_deep(Bench& b) {
  // The storm reaches only the 11-hop corner around node 0, so the side
  // sets just the Network's queue reservation, n + m = 29,800 slots,
  // which the arena grows from by doubling. Every seed's peak depth
  // (~320K-440K) then ends in the same size class, (238,400, 476,800];
  // at 64x64 a doubling step (389,120) falls inside that range, and
  // peak RSS jumped with the seed.
  const int side = b.smoke() ? 12 : 100;
  const std::int64_t ttl = b.smoke() ? 6 : 11;
  int untraced = 0;
  while (b.next_rep()) {
    Span rep(b, "rep");
    const int setup = b.open_span("setup", rep.id());
    const auto s0 = Clock::now();
    Rng rng(graph_seed(b));
    const Graph g = grid_graph(side, side, WeightSpec::uniform(1, 16), rng);
    sample_graph(b, g, since(s0));
    Network net(
        g, [ttl](NodeId) { return std::make_unique<Storm>(ttl); },
        uniform_delay(), run_seed(b));
    b.sample("setup_s", since(s0), "s");
    b.close_span(setup);

    RunStats stats;
    if (!b.traced()) {
      // Replica and engine run back to back on the same input, the
      // replica first on every other rep.
      SeedFlood replica(g, uniform_delay(), run_seed(b));
      double replica_s = 0;
      const auto run_replica = [&] {
        Span s(b, "seedq", rep.id());
        const auto t0 = Clock::now();
        replica.run(ttl);
        replica_s = since(t0);
      };
      const bool replica_first = untraced++ % 2 == 1;
      if (replica_first) run_replica();
      double run_s = 0;
      {
        Span s(b, "run", rep.id());
        const auto t0 = Clock::now();
        stats = net.run();
        run_s = since(t0);
      }
      if (!replica_first) run_replica();
      b.sample("run_s", run_s, "s");
      b.sample("events_per_s", static_cast<double>(stats.events) / run_s,
               "1/s");
      b.sample("speedup_vs_seedq", replica_s / run_s, "ratio");
      b.check(replica.events == stats.events &&
                  replica.now == stats.completion_time,
              "seed-queue replica diverged from the engine");
    } else {
      stats = traced_sequential(
          b, rep.id(), net,
          SeqInputs{g, run_seed(b), false, nullptr, uniform_delay});
    }
    Span verify(b, "verify", rep.id());
    b.digest("ledger", ledger_digest(stats));
  }
}

// -------------------------------------------------------------- flood_1m

void flood_1m(Bench& b) {
  const int n = b.smoke() ? 400 : 1000000;
  while (b.next_rep()) {
    Span rep(b, "rep");
    const int setup = b.open_span("setup", rep.id());
    const auto s0 = Clock::now();
    const Graph g = make_family("grid", n, graph_seed(b));
    sample_graph(b, g, since(s0));
    Network net(g,
                Network::ProcessStore::pooled<FloodProcess>(
                    g.node_count(),
                    [](NodeId v) { return FloodProcess(v, 0); }),
                make_exact_delay(), run_seed(b));
    b.sample("setup_s", since(s0), "s");
    b.close_span(setup);

    if (!b.traced()) {
      Span s(b, "run", rep.id());
      const auto t0 = Clock::now();
      const RunStats stats = net.run();
      const double run_s = since(t0);
      b.sample("run_s", run_s, "s");
      b.sample("events_per_s", static_cast<double>(stats.events) / run_s,
               "1/s");
    } else {
      traced_sequential(
          b, rep.id(), net,
          SeqInputs{g, run_seed(b), false, nullptr, make_exact_delay});
    }
    Span verify(b, "verify", rep.id());
    int unreached = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      unreached += !net.process_as<FloodProcess>(v).reached();
    }
    b.check(unreached == 0,
            std::to_string(unreached) + " nodes never received the flood");
    b.digest("ledger", ledger_digest(net.stats()));
  }
}

// ------------------------------------------------------------ faulty_arq

void sample_arq(Bench& b, Network& net) {
  std::int64_t retransmits = 0;
  std::int64_t corrupt = 0;
  std::int64_t delivered = 0;
  std::int64_t first_copies = 0;
  for (NodeId v = 0; v < net.graph().node_count(); ++v) {
    const ArqHost& host = arq_host(net, v);
    for (EdgeId e : net.graph().incident(v)) {
      retransmits += host.retransmit_count(e);
      corrupt += host.corrupt_frames(e);
      delivered += host.delivered_up(e);
      first_copies += host.data_sent(e);
    }
  }
  b.sample("fault.arq.retransmits", static_cast<double>(retransmits), "count");
  b.sample("fault.arq.corrupt_frames", static_cast<double>(corrupt), "count");
  // Useful work: inner deliveries per DATA frame put on the wire.
  b.sample("fault.arq.useful_frac",
           static_cast<double>(delivered) /
               static_cast<double>(std::max<std::int64_t>(
                   first_copies + retransmits, 1)),
           "fraction");
}

void faulty_arq(Bench& b) {
  const int side = b.smoke() ? 10 : 200;
  while (b.next_rep()) {
    Span rep(b, "rep");
    const int setup = b.open_span("setup", rep.id());
    const auto s0 = Clock::now();
    Rng rng(graph_seed(b));
    const Graph g = grid_graph(side, side, WeightSpec::uniform(1, 16), rng);
    sample_graph(b, g, since(s0));
    FaultPlan plan;
    plan.drop_rate = 0.02;
    plan.dup_rate = 0.01;
    plan.garble_rate = 0.01;
    plan.salt = fault_salt(b);
    const FaultInjector faults(plan, g, run_seed(b));
    Network net(g,
                arq_factory([](NodeId v) {
                  return std::make_unique<FloodProcess>(v, 0);
                }),
                uniform_delay(), run_seed(b));
    net.set_keyed_delays(true);
    net.set_faults(&faults);
    DefaultInvariantChecker checker;
    checker.set_faults(&faults);
    b.sample("setup_s", since(s0), "s");
    b.close_span(setup);

    if (!b.traced()) {
      net.set_observer(&checker);
      Span s(b, "run", rep.id());
      const auto t0 = Clock::now();
      const RunStats stats = net.run();
      checker.check_final(net);
      checker.check_arq(net);
      const double run_s = since(t0);
      b.sample("run_s", run_s, "s");
      b.sample("events_per_s", static_cast<double>(stats.events) / run_s,
               "1/s");
    } else {
      Recorder rec(g, true, &checker);
      net.set_observer(&rec);
      TracedRun run;
      double final_s = 0;
      {
        Span s(b, "run", rep.id());
        run = traced_run(b, net);
        const Span final_span(b, "check.final", s.id());
        const auto t0 = Clock::now();
        checker.check_final(net);
        checker.check_arq(net);
        final_s = since(t0);
      }
      LayerTimes lt;
      {
        Span s(b, "replay", rep.id());
        replay_layers(b, net, rec,
                      SeqInputs{g, run_seed(b), true, &faults, uniform_delay},
                      run.steps_s, lt);
      }
      lt.check += final_s;
      b.sample("check.final_s", final_s, "s");
      sample_arq(b, net);
      const double run_s = run.run_s + final_s;
      b.sample("run_s", run_s, "s");
      emit_shares(b, lt, run_s);
    }
    Span verify(b, "verify", rep.id());
    b.check(checker.ok(),
            "check: invariant checker reported " +
                std::to_string(checker.violations().size() +
                               checker.suppressed()) +
                " violations" +
                (checker.violations().empty()
                     ? std::string()
                     : ", first: " + checker.violations().front()));
    int unreached = 0;
    int dead = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      ArqHost& host = arq_host(net, v);
      unreached += !dynamic_cast<const FloodProcess&>(host.inner()).reached();
      dead += host.any_peer_dead();
    }
    b.check(unreached == 0 && dead == 0,
            std::to_string(unreached) + " nodes unreached and " +
                std::to_string(dead) + " with a peer declared dead over ARQ");
    b.digest("ledger", ledger_digest(net.stats()));
  }
}

// -------------------------------------------------------------- par_grid

// All-sources TTL-2 gossip: every node announces itself to its
// neighbours, and each first-hop delivery is relayed once more. A node
// folds what it receives, in arrival order, into a hash, so two engines
// agree on the state digest only if they delivered the same sequence to
// every node. Snapshots are plain copies, so the optimistic engine can
// host it.
class Gossip final : public Process {
 public:
  void on_start(Context& ctx) override {
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {1, ctx.self()}}, MsgClass::kAlgorithm);
    }
  }
  void on_message(Context& ctx, const Message& m) override {
    hash_ = mix64(hash_ ^ static_cast<std::uint64_t>(m.at(1)) ^
                  (static_cast<std::uint64_t>(m.edge) << 32));
    if (m.at(0) <= 0) return;
    for (EdgeId e : ctx.incident()) {
      ctx.send(e, Message{0, {m.at(0) - 1, m.at(1)}}, MsgClass::kAlgorithm);
    }
  }
  std::unique_ptr<Process> save_state() const override {
    return std::make_unique<Gossip>(*this);
  }
  void restore_state(const Process& saved) override {
    *this = dynamic_cast<const Gossip&>(saved);
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0;
};

std::uint64_t state_digest(ProcessHost& host) {
  std::uint64_t h = 0;
  for (NodeId v = 0; v < host.graph().node_count(); ++v) {
    h = mix64(h ^ host.process_as<Gossip>(v).hash());
  }
  return h;
}

double imbalance(const std::vector<double>& per_shard) {
  double total = 0;
  double most = 0;
  for (const double x : per_shard) {
    total += x;
    most = std::max(most, x);
  }
  return total > 0 ? most * static_cast<double>(per_shard.size()) / total : 0;
}

void sample_partition(Bench& b, const Graph& g, const ShardPartition& part) {
  int cut = 0;
  for (const Edge& e : g.edges()) cut += part.shard(e.u) != part.shard(e.v);
  b.sample("par.shard.cut_frac",
           static_cast<double>(cut) / static_cast<double>(g.edge_count()),
           "fraction");
  std::vector<double> sizes;
  for (const int s : part.sizes()) sizes.push_back(s);
  b.sample("par.shard.node_imbalance", imbalance(sizes), "ratio");
}

void par_grid(Bench& b) {
  const int side = b.smoke() ? 10 : 192;
  constexpr int kShards = 4;
  constexpr int kQuantum = 256;
  int untraced = 0;
  while (b.next_rep()) {
    Span rep(b, "rep");
    const int setup = b.open_span("setup", rep.id());
    const auto s0 = Clock::now();
    Rng rng(graph_seed(b));
    const Graph g = grid_graph(side, side, WeightSpec::uniform(1, 16), rng);
    sample_graph(b, g, since(s0));
    const auto store = [&g] {
      return Network::ProcessStore::pooled<Gossip>(
          g.node_count(), [](NodeId) { return Gossip(); });
    };
    Network seq(g, store(), uniform_delay(), run_seed(b));
    seq.set_keyed_delays(true);
    auto t0 = Clock::now();
    ShardEngine shard(g, store(), uniform_delay(), run_seed(b),
                      ShardEngine::Options{kShards, kShards, {}});
    const double shard_setup_s = since(t0);
    t0 = Clock::now();
    TimeWarpEngine tw(g, store(), uniform_delay(), run_seed(b),
                      TimeWarpEngine::Options{kShards, kShards, kQuantum, {}});
    const double tw_setup_s = since(t0);
    b.sample("setup_s", since(s0), "s");
    b.close_span(setup);

    const bool traced = b.traced();
    Recorder rec(g, false, nullptr);
    std::vector<double> gvt_stamps;
    std::vector<double> commits(kShards, 0);
    if (traced) {
      seq.set_observer(&rec);
      tw.set_gvt_hook([&gvt_stamps](const TimeWarpEngine::GvtSample&) {
        gvt_stamps.push_back(
            seconds_between(Clock::time_point{}, Clock::now()));
      });
      tw.set_commit_hook(
          [&commits, &tw](const TimeWarpEngine::CommittedEvent& ev) {
            const int shard_id = tw.partition().shard(ev.node);
            commits[static_cast<std::size_t>(shard_id)] += 1;
          });
    }

    RunStats seq_stats;
    RunStats shard_stats;
    RunStats tw_stats;
    double seq_s = 0;
    double seq_steps_s = 0;
    double shard_s = 0;
    double tw_s = 0;
    double tw_start = 0;
    double run_s = 0;
    {
      Span run(b, "run", rep.id());
      const auto run_t0 = Clock::now();
      const std::function<void()> backends[] = {
          [&] {
            Span s(b, "run.seq", run.id());
            if (traced) {
              const TracedRun tr = traced_run(b, seq);
              seq_s = tr.run_s;
              seq_steps_s = tr.steps_s;
              seq_stats = seq.stats();
            } else {
              const auto t = Clock::now();
              seq_stats = seq.run();
              seq_s = since(t);
            }
          },
          [&] {
            Span s(b, "run.shard", run.id());
            const auto t = Clock::now();
            shard_stats = shard.run();
            shard_s = since(t);
          },
          [&] {
            Span s(b, "run.tw", run.id());
            const auto t = Clock::now();
            tw_start = seconds_between(Clock::time_point{}, t);
            tw_stats = tw.run();
            tw_s = since(t);
          },
      };
      // Rotated order, so no backend always runs on a cold or a warm
      // machine; traced reps keep one order.
      const int first = traced ? 0 : untraced++ % 3;
      for (int i = 0; i < 3; ++i) backends[(first + i) % 3]();
      run_s = since(run_t0);
    }
    b.sample("run_s", run_s, "s");
    if (!traced) {
      b.sample("events_per_s", static_cast<double>(seq_stats.events) / seq_s,
               "1/s");
      b.sample("shard4_events_per_s",
               static_cast<double>(shard_stats.events) / shard_s, "1/s");
      b.sample("tw4_events_per_s", static_cast<double>(tw_stats.events) / tw_s,
               "1/s");
      b.sample("shard4_speedup", seq_s / shard_s, "ratio");
      b.sample("tw4_speedup", seq_s / tw_s, "ratio");
    } else {
      LayerTimes lt;
      {
        Span s(b, "replay", rep.id());
        replay_layers(b, seq, rec,
                      SeqInputs{g, run_seed(b), true, nullptr, uniform_delay},
                      seq_steps_s, lt);
      }
      lt.shard = shard_s;
      lt.tw = tw_s;
      emit_shares(b, lt, run_s);

      const auto rounds = static_cast<double>(shard.rounds());
      b.sample("par.shard.setup_s", shard_setup_s, "s");
      b.sample("par.shard.rounds", rounds, "count");
      b.sample("par.shard.wave_rounds",
               static_cast<double>(shard.wave_rounds()), "count");
      b.sample("par.shard.events_per_round",
               static_cast<double>(shard_stats.events) / rounds, "count");
      b.sample("par.shard.round_us", 1e6 * shard_s / rounds, "us");
      sample_partition(b, g, shard.partition());

      std::vector<double> round_us;
      double prev = tw_start;
      for (const double stamp : gvt_stamps) {
        round_us.push_back(1e6 * (stamp - prev));
        prev = stamp;
      }
      const auto speculative = static_cast<double>(
          std::max<std::int64_t>(tw.speculative_events(), 1));
      b.sample("par.tw.setup_s", tw_setup_s, "s");
      b.sample("par.tw.rounds", static_cast<double>(tw.rounds()), "count");
      b.sample("par.tw.round_us_p50", quantile(round_us, 0.5), "us");
      b.sample("par.tw.round_us_p99", quantile(round_us, 0.99), "us");
      b.sample("par.tw.commit_efficiency",
               static_cast<double>(tw.committed_events()) / speculative,
               "fraction");
      b.sample("par.tw.rolled_back_frac",
               static_cast<double>(tw.rolled_back_events()) / speculative,
               "fraction");
      b.sample("par.tw.anti_messages", static_cast<double>(tw.anti_messages()),
               "count");
      b.sample("par.tw.event_imbalance", imbalance(commits), "ratio");
    }

    Span verify(b, "verify", rep.id());
    const std::string ref = ledger_digest(seq_stats);
    b.check(ledger_digest(shard_stats) == ref,
            "par.shard: ledger " + ledger_digest(shard_stats) +
                " differs from the keyed sequential " + ref);
    b.check(ledger_digest(tw_stats) == ref,
            "par.tw: ledger " + ledger_digest(tw_stats) +
                " differs from the keyed sequential " + ref);
    const std::uint64_t state = state_digest(seq);
    b.check(state_digest(shard) == state,
            "par.shard: per-node delivery sequences differ from the keyed "
            "sequential run");
    b.check(state_digest(tw) == state,
            "par.tw: per-node delivery sequences differ from the keyed "
            "sequential run");
    b.digest("ledger", ref);
    b.digest("state", hex64(state));
  }
}

// ----------------------------------------------------------- paper_sweep

constexpr const char* kPaperTables[] = {"F1", "F2", "F3", "F4", "F5",
                                        "F6", "F7", "F8", "F9", "S3",
                                        "S4", "S5", "A1"};
constexpr int kPaperTableCount = 13;
constexpr int kSweepJobs = 4;

// Wall-clock interval of one row, on whichever pool worker ran it.
struct RowTime {
  int table = 0;
  double start_s = 0;
  double end_s = 0;
};

class RowClock {
 public:
  void add(int table, Clock::time_point t0, Clock::time_point t1) {
    const std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(RowTime{table, seconds_between(origin_, t0),
                            seconds_between(origin_, t1)});
  }
  // Starts a pass: forgets the previous rows, times from now.
  void restart() {
    const std::lock_guard<std::mutex> lock(mu_);
    rows_.clear();
    origin_ = Clock::now();
  }
  std::vector<RowTime> rows() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return rows_;
  }

 private:
  mutable std::mutex mu_;
  Clock::time_point origin_ = Clock::now();
  std::vector<RowTime> rows_;
};

// The 13 paper tables, each row function wrapped to report its
// wall-clock interval. The rows keep the seeds their tables pin, since
// the bounds are recorded against those seeds, so the benchmark seed
// does not change this workload's input.
std::vector<bench::SweepSpec> paper_tables(RowClock& clock) {
  const std::vector<bench::SweepSpec> all = bench::builtin_tables();
  std::vector<bench::SweepSpec> out;
  for (int i = 0; i < kPaperTableCount; ++i) {
    const bench::SweepSpec* spec = bench::find_table(all, kPaperTables[i]);
    require(spec != nullptr,
            std::string("paper table ") + kPaperTables[i] + " not registered");
    bench::SweepSpec copy = *spec;
    copy.run = [inner = spec->run, i, &clock](const bench::RowSpec& row) {
      const auto t0 = Clock::now();
      bench::RowResult result = inner(row);
      clock.add(i, t0, Clock::now());
      return result;
    };
    out.push_back(std::move(copy));
  }
  return out;
}

std::string sweep_digest(const std::vector<bench::TableResult>& tables) {
  std::uint64_t h = 0;
  for (const bench::TableResult& t : tables) {
    for (const char c : bench::render_table_json(t)) {
      h = mix64(h ^ static_cast<unsigned char>(c));
    }
  }
  return hex64(h);
}

// Seconds during which at least one row was running.
double busy_union(std::vector<RowTime> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const RowTime& a, const RowTime& b) {
              return a.start_s < b.start_s;
            });
  double covered = 0;
  double lo = 0;
  double hi = -1;
  for (const RowTime& r : rows) {
    if (r.start_s > hi) {
      if (hi > lo) covered += hi - lo;
      lo = r.start_s;
      hi = r.end_s;
    } else {
      hi = std::max(hi, r.end_s);
    }
  }
  if (hi > lo) covered += hi - lo;
  return covered;
}

std::vector<double> row_seconds(const std::vector<RowTime>& rows) {
  std::vector<double> out;
  for (const RowTime& r : rows) out.push_back(r.end_s - r.start_s);
  return out;
}

void paper_sweep(Bench& b) {
  RowClock clock;
  std::vector<double> row_ms;  // every row of every untraced pass
  while (b.next_rep()) {
    Span rep(b, "rep");
    std::vector<bench::SweepSpec> specs;
    {
      Span s(b, "setup", rep.id());
      const auto s0 = Clock::now();
      specs = paper_tables(clock);
      b.sample("setup_s", since(s0), "s");
    }

    const auto pass = [&](int jobs, double& wall) {
      clock.restart();
      const auto t0 = Clock::now();
      std::vector<bench::TableResult> tables =
          bench::SweepRunner({jobs, b.smoke()}).run_all(specs);
      wall = since(t0);
      return tables;
    };
    double wall = 0;
    std::vector<bench::TableResult> tables;
    {
      Span s(b, "run", rep.id());
      tables = pass(kSweepJobs, wall);
    }
    const std::vector<RowTime> rows = clock.rows();
    const std::vector<double> secs = row_seconds(rows);
    b.sample("run_s", wall, "s");
    b.sample("rows_per_s", static_cast<double>(rows.size()) / wall, "1/s");

    if (!b.traced()) {
      for (const double s : secs) row_ms.push_back(1e3 * s);
    } else {
      double total = 0;
      std::vector<double> per_table(kPaperTableCount, 0);
      for (const RowTime& r : rows) {
        per_table[static_cast<std::size_t>(r.table)] += r.end_s - r.start_s;
        total += r.end_s - r.start_s;
      }
      for (int i = 0; i < kPaperTableCount; ++i) {
        const std::string id = kPaperTables[i];
        const double table_s = per_table[static_cast<std::size_t>(i)];
        b.sample("harness.table_s." + id, table_s, "s");
        b.sample("harness.table_share." + id, table_s / total, "fraction");
      }
      int checks = 0;
      for (const bench::TableResult& t : tables) checks += t.check_count();
      b.sample("harness.rows", static_cast<double>(rows.size()), "count");
      b.sample("harness.checks", checks, "count");
      b.sample("par.pool.busy_frac", total / (kSweepJobs * wall), "fraction");
      b.sample("par.pool.critical_row_s",
               *std::max_element(secs.begin(), secs.end()), "s");

      // Rows run in parallel, so the pass's time is split by wall-clock
      // coverage: time with some row running belongs to the harness; the
      // pool's own is the start-up before the first row and the join
      // after the last. A gap in between is left unattributed and shows
      // as coverage below 1.
      LayerTimes lt;
      lt.harness = busy_union(rows);
      double first = wall;
      double last = 0;
      for (const RowTime& r : rows) {
        first = std::min(first, r.start_s);
        last = std::max(last, r.end_s);
      }
      lt.pool = first + std::max(0.0, wall - last);
      emit_shares(b, lt, wall);

      // Per-row inflation under contention: the same rows on one worker.
      double wall1 = 0;
      std::vector<bench::TableResult> serial;
      {
        Span s(b, "run.jobs1", rep.id());
        serial = pass(1, wall1);
      }
      b.sample("par.pool.task_inflation",
               quantile(secs, 0.5) / quantile(row_seconds(clock.rows()), 0.5),
               "ratio");
      b.check(sweep_digest(serial) == sweep_digest(tables),
              "harness: jobs=1 sweep JSON differs from the jobs=4 sweep");
    }

    Span verify(b, "verify", rep.id());
    for (const bench::TableResult& t : tables) {
      for (const bench::RowResult& row : t.rows) {
        b.check(row.pass(),
                "harness: " + t.table + " " + row.spec.name(t.param_name) +
                    ": " + (row.failed ? row.error : "bound check failed"));
      }
    }
    b.digest("sweep_json", sweep_digest(tables));
  }
  if (!row_ms.empty()) {
    b.sample_run("row_p50_ms", quantile(row_ms, 0.5), "ms");
    b.sample_run("row_p99_ms", quantile(row_ms, 0.99), "ms");
    b.sample_run("row_samples", static_cast<double>(row_ms.size()), "count");
  }
}

}  // namespace

void run_workload(const std::string& name, Bench& b) {
  if (name == "storm_deep") {
    storm_deep(b);
  } else if (name == "flood_1m") {
    flood_1m(b);
  } else if (name == "faulty_arq") {
    faulty_arq(b);
  } else if (name == "par_grid") {
    par_grid(b);
  } else {
    require(name == "paper_sweep", "unknown workload " + name);
    paper_sweep(b);
  }
}

}  // namespace csca::perf
