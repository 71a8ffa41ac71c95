// engine and parallel: the simulator's own speed, each row timed
// against a baseline run back to back (docs/model.md "Engine
// internals", docs/parallel.md). Neither is a paper table.
//
//   * engine: events/s of Network and the pulse SyncEngine on a TTL
//     storm (deep queue) and on tokens relayed around a cycle (tiny
//     queue, long event chain). The flood_grid rows also time a replica
//     of the seed engine's event loop: speedup_vs_seed.
//   * parallel: ShardEngine at 4 shards and 4 threads against the keyed
//     sequential Network on floods with real lookahead, and RunPool at
//     jobs 4 against jobs 1 over whole runs. shard_vs_seq and
//     pool_vs_seq are sequential seconds over parallel seconds.
//
// Both tables are timed (SweepSpec::timed). Smoke rows report
// deterministic metrics and identity checks only (ratio band exactly
// [1, 1]): a storm delivers one message per walk of length 1..ttl+1
// from node 0, a ring tokens·n·laps; the seed replica matches the
// engine's event count; ShardEngine's ledger matches keyed sequential,
// and RunPool's runs match at jobs 4 and jobs 1.
#include <algorithm>
#include <cmath>
#include <queue>
#include <thread>
#include <tuple>

#include "bench_harness/table_common.h"
#include "bench_harness/tables.h"
#include "conn/flood.h"
#include "graph/generators.h"
#include "par/run_pool.h"
#include "par/shard_engine.h"
#include "sim/network.h"
#include "sim/sync_engine.h"

namespace csca::bench {

namespace {

// ---- engine ----------------------------------------------------------

// The TTL storm on either engine family: node 0 seeds every incident
// edge, and each delivery with ttl > 0 re-broadcasts on all of them.
template <typename Base, typename Ctx>
class StormOn final : public Base {
 public:
  explicit StormOn(std::int64_t ttl) : ttl_(ttl) {}
  void on_start(Ctx& ctx) override {
    if (ctx.self() == 0) spread(ctx, Message{0, {ttl_, 0, 0, 0}});
  }
  void on_message(Ctx& ctx, const Message& m) override {
    const std::int64_t ttl = m.at(0);
    if (ttl <= 0) return;
    spread(ctx, Message{0, {ttl - 1, m.at(1) + 1, ctx.self(), m.at(3)}});
  }

 private:
  static void spread(Ctx& ctx, const Message& m) {
    for (EdgeId e : ctx.incident()) ctx.send(e, m, MsgClass::kAlgorithm);
  }
  std::int64_t ttl_;
};
using Storm = StormOn<Process, Context>;
using SyncStorm = StormOn<SyncProcess, SyncContext>;

// k equally spaced tokens each relayed `hops` times around a cycle.
class RingToken final : public Process {
 public:
  RingToken(NodeId self, int n, int k, std::int64_t hops)
      : self_(self), n_(n), hops_(self % (n / k) == 0 ? hops : 0) {}
  void on_start(Context& ctx) override {
    if (hops_ > 0) forward(ctx, hops_);
  }
  void on_message(Context& ctx, const Message& m) override {
    if (m.at(0) > 0) forward(ctx, m.at(0));
  }

 private:
  void forward(Context& ctx, std::int64_t remaining) {
    if (succ_ == kNoEdge) {
      for (EdgeId e : ctx.incident()) {
        if (ctx.neighbor(e) == (self_ + 1) % n_) succ_ = e;
      }
    }
    ctx.send(succ_, Message{0, {remaining - 1, self_, 0, 0}},
             MsgClass::kAlgorithm);
  }
  NodeId self_;
  int n_;
  std::int64_t hops_;  // 0 on nodes that start no token
  EdgeId succ_ = kNoEdge;
};

// The seed engine's hot path, reproduced exactly: one by-value node per
// pending delivery in a binary std::priority_queue, `top()` copying the
// node out before `pop()` sifts, and the seed's Message layout — a
// heap-allocated std::vector<std::int64_t> payload per message. Delay
// draws, FIFO clamping and the flood handler match Network+Storm line
// for line, so the event sequence is identical (checked by the row)
// and only the queue and message representation differ.
struct SeedFlood {
  struct Msg {
    int type = 0;
    std::vector<std::int64_t> data;
  };
  struct Node {
    double arrival;
    std::uint64_t seq;
    NodeId to;
    Msg msg;
    bool operator>(const Node& o) const {
      return std::tie(arrival, seq) > std::tie(o.arrival, o.seq);
    }
  };

  const Graph& g;
  std::unique_ptr<DelayModel> delay;
  Rng rng;
  std::priority_queue<Node, std::vector<Node>, std::greater<>> queue;
  std::vector<double> last_arrival;
  std::uint64_t seq = 0;
  double now = 0;
  std::int64_t events = 0;

  SeedFlood(const Graph& graph, std::uint64_t seed)
      : g(graph),
        delay(make_uniform_delay(0.1, 0.9)),
        rng(seed),
        last_arrival(static_cast<std::size_t>(2 * graph.edge_count()), 0.0) {}

  void send(NodeId from, EdgeId e, Msg m) {
    const Edge& edge = g.edge(e);
    const double d = delay->delay(edge.w, rng);
    const std::size_t channel =
        static_cast<std::size_t>(2 * e) + (from == edge.u ? 0 : 1);
    const double arrival = std::max(now + d, last_arrival[channel]);
    last_arrival[channel] = arrival;
    queue.push(Node{arrival, seq++, g.other(e, from), std::move(m)});
  }

  void run(std::int64_t ttl) {
    for (EdgeId e : g.incident(0)) send(0, e, Msg{0, {ttl, 0, 0, 0}});
    while (!queue.empty()) {
      const Node ev = queue.top();
      queue.pop();
      now = ev.arrival;
      ++events;
      const std::int64_t t = ev.msg.data[0];
      if (t <= 0) continue;
      for (EdgeId e : g.incident(ev.to)) {
        send(ev.to, e,
             Msg{0, {t - 1, ev.msg.data[1] + 1, ev.to, ev.msg.data[3]}});
      }
    }
  }
};

// Deliveries of a TTL storm from node 0: one per walk of length
// 1..ttl+1 from node 0.
double storm_deliveries(const Graph& g, std::int64_t ttl) {
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<std::int64_t> walks(n, 0);
  std::vector<std::int64_t> next(n);
  walks[0] = 1;
  std::int64_t total = 0;
  for (std::int64_t k = 1; k <= ttl + 1; ++k) {
    std::fill(next.begin(), next.end(), 0);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const std::int64_t here = walks[static_cast<std::size_t>(v)];
      if (here == 0) continue;
      for (const Arc a : g.neighbors(v)) {
        next[static_cast<std::size_t>(a.node)] += here;
        total += here;
      }
    }
    walks.swap(next);
  }
  return static_cast<double>(total);
}

enum class Load { kStorm, kSyncStorm, kRing };

struct Workload {
  const char* algo;
  const char* family;
  int n;
  Load load;
  std::int64_t depth;  // storm ttl, or ring laps
  int tokens;          // ring only
  std::uint64_t seed;  // delay stream (the pulse engine has none)
  bool smoke;          // deterministic metrics only
  bool seed_replica;   // also time the seed engine's event loop
};

using enum Load;
constexpr Workload kWorkloads[] = {
    {"flood_grid_100k", "grid", 32 * 32, kStorm, 8, 0, 1234, false, false},
    {"flood_grid_1M", "grid", 64 * 64, kStorm, 11, 0, 1234, false, true},
    {"flood_gnp_2M", "gnp", 256, kStorm, 3, 0, 4321, false, false},
    {"ping_ring_1M", "cycle", 1024, kRing, 30, 32, 99, false, false},
    {"ping_ring_10M", "cycle", 1024, kRing, 150, 64, 99, false, false},
    {"sync_flood_1M", "grid", 64 * 64, kSyncStorm, 11, 0, 0, false, false},
    {"flood_grid_10k", "grid", 16 * 16, kStorm, 7, 0, 1234, true, true},
    {"ping_ring_10k", "cycle", 128, kRing, 10, 8, 99, true, false},
    {"sync_flood_10k", "grid", 16 * 16, kSyncStorm, 7, 0, 0, true, false},
};

const Workload& find_workload(const std::string& algo) {
  const auto* w =
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const Workload& x) { return algo == x.algo; });
  require(w != std::end(kWorkloads), "engine: unknown workload " + algo);
  return *w;
}

// Fixed generator seeds, so every recording of a row times one input.
Graph workload_graph(const Workload& w) {
  if (std::string(w.family) == "gnp") {
    Rng rng(5);
    return connected_gnp(w.n, 0.15, WeightSpec::uniform(1, 32), rng);
  }
  Rng rng(7);
  if (std::string(w.family) == "cycle") {
    return cycle_graph(w.n, WeightSpec::constant(2), rng);
  }
  const int side = static_cast<int>(std::lround(std::sqrt(w.n)));
  return grid_graph(side, side, WeightSpec::uniform(1, 16), rng);
}

RowResult run_engine_row(const RowSpec& spec) {
  const Workload& w = find_workload(spec.algo);
  const Graph g = workload_graph(w);
  const std::int64_t depth = w.depth;
  RunStats stats;
  double secs = 0;
  double peak_queue = 0;
  const auto time_run = [&](auto& engine) {
    secs = wall_seconds([&] { stats = engine.run(); });
    peak_queue = static_cast<double>(engine.peak_queue_depth());
  };
  double expected = 0;
  if (w.load == kRing) {
    const std::int64_t hops = static_cast<std::int64_t>(w.n) * depth;
    Network net(
        g,
        [&](NodeId v) {
          return std::make_unique<RingToken>(v, w.n, w.tokens, hops);
        },
        make_uniform_delay(0.1, 0.9), w.seed);
    time_run(net);
    expected = static_cast<double>(w.tokens * hops);
  } else if (w.load == kSyncStorm) {
    SyncEngine eng(
        g, [depth](NodeId) { return std::make_unique<SyncStorm>(depth); });
    time_run(eng);
    expected = storm_deliveries(g, depth);
  } else {
    Network net(
        g, [depth](NodeId) { return std::make_unique<Storm>(depth); },
        make_uniform_delay(0.1, 0.9), w.seed);
    time_run(net);
    expected = storm_deliveries(g, depth);
  }

  RowResult out;
  const double events = static_cast<double>(stats.events);
  add_metric(out, "events", events);
  if (!w.smoke) {
    add_metric(out, "seconds", secs);
    add_metric(out, "events_per_sec", per_sec(events, secs));
  }
  add_metric(out, "peak_queue_depth", peak_queue);
  add_check(out,
            w.load == kRing ? "events_token_hops" : "events_storm_walks",
            events, expected, 1.0, 1.0);
  if (w.seed_replica) {
    SeedFlood seed(g, w.seed);
    const double seed_secs = wall_seconds([&] { seed.run(depth); });
    const auto seed_events = static_cast<double>(seed.events);
    if (!w.smoke) {
      add_metric(out, "speedup_vs_seed",
                 per_sec(events, secs) / per_sec(seed_events, seed_secs));
    }
    add_check(out, "seed_replica_events", seed_events, events, 1.0, 1.0);
  }
  return out;
}

// ---- parallel --------------------------------------------------------

constexpr int kShards = 4;
constexpr int kPoolJobs = 4;
constexpr int kPoolRuns = 4;

// Rows below this many nodes are smoke rows.
constexpr int kTimedFloor = 1000;

// The 10^6-node grid row fails when shard_vs_seq falls below this
// floor: below the lowest of the interleaved runs in EXPERIMENTS.md
// ("engine and parallel").
constexpr double kGridShardFloor = 0.7;

// G(n, p) at p = degree / n over a random attachment tree (so it is
// connected), in O(n + m): geometric skips over the pair sequence
// (Batagelj and Brandes 2005), where connected_gnp draws for every pair.
Graph sparse_gnp(int n, double degree, std::uint64_t seed) {
  Rng rng(seed);
  const WeightSpec weights = WeightSpec::uniform(1, 32);
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, v - 1));
    edges.push_back({u, v, weights.sample(rng)});
  }
  const double log_q = std::log1p(-degree / n);
  for (std::int64_t u = -1, v = 1;;) {
    u += 1 + static_cast<std::int64_t>(
                 std::log1p(-rng.uniform_real(0.0, 1.0)) / log_q);
    while (u >= v && v < n) u -= v++;
    if (v >= n) break;
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v),
                     weights.sample(rng)});
  }
  // Every pair has u < v; a pair drawn twice keeps its first edge.
  const auto key = [](const Edge& e) { return std::pair(e.v, e.u); };
  std::stable_sort(
      edges.begin(), edges.end(),
      [&](const Edge& a, const Edge& b) { return key(a) < key(b); });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [&](const Edge& a, const Edge& b) {
                            return key(a) == key(b);
                          }),
              edges.end());
  return Graph(n, std::move(edges));
}

// got's ledger must equal want's field for field; a cost class neither
// billed has no ratio to check.
void add_ledger_checks(RowResult& out, const RunStats& got,
                       const RunStats& want) {
  const auto same = [&](const char* name, double g, double w) {
    if (g != 0 || w != 0) add_check(out, name, g, w, 1.0, 1.0);
  };
  same("events_identical", static_cast<double>(got.events),
       static_cast<double>(want.events));
  same("completion_time_identical", got.completion_time,
       want.completion_time);
  same("algorithm_cost_identical", static_cast<double>(got.algorithm_cost),
       static_cast<double>(want.algorithm_cost));
  same("control_cost_identical", static_cast<double>(got.control_cost),
       static_cast<double>(want.control_cost));
  same("recovery_cost_identical", static_cast<double>(got.recovery_cost),
       static_cast<double>(want.recovery_cost));
}

// Reports both sides' seconds and returns <name>_vs_seq.
double add_timing(RowResult& out, const std::string& name, double seq_secs,
                  double par_secs) {
  const double speedup = seq_secs / std::max(par_secs, 1e-12);
  add_metric(out, "seq_seconds", seq_secs);
  add_metric(out, name + "_seconds", par_secs);
  add_metric(out, name + "_vs_seq", speedup);
  add_metric(out, "hardware_concurrency",
             static_cast<double>(std::thread::hardware_concurrency()));
  return speedup;
}

// One pooled flood from node 0 under keyed uniform(0.1, 0.9)·w delays,
// on the keyed sequential Network and then on ShardEngine.
RowResult run_shard_row(const RowSpec& spec) {
  const Graph g = spec.family == "gnp_sparse"
                      ? sparse_gnp(spec.n, 8.0, spec.seed)
                      : make_family(spec.family, spec.n, spec.seed);
  const auto flood = [&g] {
    return Network::ProcessStore::pooled<FloodProcess>(
        g.node_count(), [](NodeId v) { return FloodProcess(v, 0); });
  };
  RunStats seq;
  double seq_secs = 0;
  {
    Network net(g, flood(), make_uniform_delay(0.1, 0.9), spec.seed);
    net.set_keyed_delays(true);
    seq_secs = wall_seconds([&] { seq = net.run(); });
  }
  ShardEngine eng(g, flood(), make_uniform_delay(0.1, 0.9), spec.seed,
                  ShardEngine::Options{kShards, kShards, {}});
  RunStats par;
  const double shard_secs = wall_seconds([&] { par = eng.run(); });

  RowResult out;
  add_metric(out, "events", static_cast<double>(par.events));
  add_metric(out, "msgs", static_cast<double>(par.total_messages()));
  add_metric(out, "cost", static_cast<double>(par.total_cost()));
  add_metric(out, "time", par.completion_time);
  add_ledger_checks(out, par, seq);
  if (spec.n >= kTimedFloor) {
    add_metric(out, "shard_rounds", static_cast<double>(eng.rounds()));
    add_metric(out, "shard_events_per_sec",
               per_sec(static_cast<double>(par.events), shard_secs));
    const double speedup = add_timing(out, "shard", seq_secs, shard_secs);
    if (spec.family == "grid" && spec.n >= 1000000) {
      // min_ratio: the row fails below the floor; the top is open.
      add_check(out, "shard_vs_seq_floor", speedup, 1.0, 1e9,
                kGridShardFloor);
    }
  }
  return out;
}

// kPoolRuns storms (the engine table's flood_grid_1M, or flood_grid_10k
// on the smoke row), each on its own delay stream, through RunPool at
// jobs 1 and then at kPoolJobs. Ledgers are summed in run order.
RowResult run_pool_row(const RowSpec& spec) {
  const bool timed = spec.n >= kTimedFloor;
  const Workload& w =
      find_workload(timed ? "flood_grid_1M" : "flood_grid_10k");
  const Graph g = workload_graph(w);
  std::vector<double> run_secs(kPoolRuns);
  const auto sweep = [&](int jobs) {
    RunStats sum;
    for (const RunStats& r : RunPool(jobs).map(kPoolRuns, [&](std::size_t i) {
           Network net(
               g, [&w](NodeId) { return std::make_unique<Storm>(w.depth); },
               make_uniform_delay(0.1, 0.9), Rng(spec.seed).split(i).seed());
           RunStats stats;
           run_secs[i] = wall_seconds([&] { stats = net.run(); });
           return stats;
         })) {
      sum.add_ledger(r);
      sum.events += r.events;
      sum.completion_time += r.completion_time;
    }
    return sum;
  };
  RunStats seq;
  const double seq_secs = wall_seconds([&] { seq = sweep(1); });
  const double fastest = *std::min_element(run_secs.begin(), run_secs.end());
  RunStats par;
  const double pool_secs = wall_seconds([&] { par = sweep(kPoolJobs); });

  RowResult out;
  add_metric(out, "runs", kPoolRuns);
  add_metric(out, "events", static_cast<double>(par.events));
  add_ledger_checks(out, par, seq);
  if (timed) {
    add_metric(out, "run_seconds_min", fastest);
    add_timing(out, "pool", seq_secs, pool_secs);
  }
  return out;
}

}  // namespace

SweepSpec table_engine() {
  SweepSpec spec;
  spec.table = "engine";
  spec.title = "Engine event throughput (wall-clock, not a table repro)";
  spec.run = run_engine_row;
  spec.timed = true;
  for (const Workload& w : kWorkloads) {
    (w.smoke ? spec.smoke_rows : spec.rows).push_back({w.algo, w.family, w.n});
  }
  finalize_rows(spec);
  return spec;
}

SweepSpec table_parallel() {
  SweepSpec spec;
  spec.table = "parallel";
  spec.title = "ShardEngine and RunPool vs sequential (wall-clock)";
  spec.run = [](const RowSpec& row) {
    return row.algo == "run_pool" ? run_pool_row(row) : run_shard_row(row);
  };
  spec.timed = true;
  for (const bool smoke : {false, true}) {
    const int big = smoke ? 256 : 1000000;
    std::vector<RowSpec>& rows = smoke ? spec.smoke_rows : spec.rows;
    rows.push_back({"shard", "grid", big});
    rows.push_back({"shard", "gnp_sparse", smoke ? 256 : 100000});
    rows.push_back({"shard", "grid_pow2", big});
    rows.push_back({"run_pool", "grid", smoke ? 16 * 16 : 64 * 64});
  }
  finalize_rows(spec);
  return spec;
}

}  // namespace csca::bench
