// Heap allocations per delivered event on the shared engine path.
//
// This binary replaces the global operator new with a counting one, so
// it links into no other test. It runs bench/perf par_grid's protocol,
// all-sources TTL-2 gossip over keyed uniform(0.1, 0.9)·w delays, on
// a 64x64 grid with weights uniform in [1, 16], and bounds the
// allocations each engine's run() makes per delivered (for TimeWarp:
// committed) event. The counts repeat exactly from run to run at one
// thread. Every event here is one send and one delivery, so a check on
// the send or delivery path that builds its message string before
// testing adds one allocation per event. Each bound is the measured
// count plus kMargin, a quarter of that.
//
// It also bounds the allocations of the centralized network parameters,
// measure(g) and kruskal_mst(g), on G(n, p) graphs of one n and rising
// m. Both read edge weights straight from the edge table, so one bound
// in n holds for every m. measure makes at most two Dijkstra runs per
// node, each settling at most n nodes, and each settled node's
// neighbors() call builds its check message (Graph's accessors are not
// check-first yet): 2n^2 + 3n, plus a few dozen vectors. kruskal_mst
// allocates its order, union-find and result vectors only. A per-edge
// or per-comparison check that builds its message first makes either
// count grow with m and fails its bound.
//
// Last, it bounds what building a run costs: the three Rng samplers
// draw without allocating, a generated grid allocates a constant number
// of times whatever its edge count, and a factory-built Network
// allocates once per node. Every weight of a generated graph and every
// unkeyed delay is one sampler call.
//
// The counter sees the plain and array forms only. Over-aligned types
// (Message is alignas(64)) allocate through the aligned overloads,
// which are left to the library; a growth there shows in peak RSS.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "graph/generators.h"
#include "graph/measures.h"
#include "graph/mst.h"
#include "par/shard_engine.h"
#include "par/timewarp_engine.h"
#include "sim/network.h"
#include "util/rng.h"

namespace {
std::atomic<long long> g_allocations{0};

// Every delete form frees here, out of line: GCC flags a free() it can
// see inlined at a delete of operator new's result as a mismatched pair.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace csca {
namespace {

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

 private:
  std::uint64_t hash_ = 0;
};

constexpr int kSide = 64;
constexpr std::uint64_t kSeed = 1;
constexpr double kMargin = 0.25;

Graph grid() {
  Rng rng(kSeed);
  return grid_graph(kSide, kSide, WeightSpec::uniform(1, 16), rng);
}

PooledStore<Process> store(const Graph& g) {
  return PooledStore<Process>::pooled<Gossip>(g.node_count(),
                                              [](NodeId) { return Gossip(); });
}

// Allocations per delivered event made inside engine.run().
template <class Engine>
double allocations_per_event(Engine& engine, const char* label) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  const RunStats stats = engine.run();
  const long long made =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_GT(stats.events, 0);
  const double per_event =
      static_cast<double>(made) / static_cast<double>(stats.events);
  std::printf("%s: %lld allocations over %lld events = %.4f per event\n",
              label, made, static_cast<long long>(stats.events), per_event);
  return per_event;
}

TEST(AllocationBudget, KeyedNetwork) {
  const Graph g = grid();
  Network net(g, store(g), make_uniform_delay(0.1, 0.9), kSeed);
  net.set_keyed_delays(true);
  EXPECT_LE(allocations_per_event(net, "Network (keyed)"),
            7.727 + kMargin);
}

TEST(AllocationBudget, ShardEngineFourShardsOneThread) {
  const Graph g = grid();
  ShardEngine eng(g, store(g), make_uniform_delay(0.1, 0.9), kSeed,
                  ShardEngine::Options{4, 1, {}});
  EXPECT_LE(allocations_per_event(eng, "ShardEngine 4 shards, 1 thread"),
            1.343 + kMargin);
}

TEST(AllocationBudget, TimeWarpFourShardsOneThread) {
  const Graph g = grid();
  TimeWarpEngine eng(g, store(g), make_uniform_delay(0.1, 0.9), kSeed,
                     TimeWarpEngine::Options{4, 1, 256, {}});
  EXPECT_LE(allocations_per_event(eng, "TimeWarp 4 shards, 1 thread"),
            1.484 + kMargin);
}

// Allocations made by call().
template <class Call>
long long allocations_of(Call&& call) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  call();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocationBudget, NetworkParametersDoNotGrowWithEdgeCount) {
  constexpr int kNodes = 48;
  constexpr long long kMeasureBound = 2LL * kNodes * kNodes + 3 * kNodes + 64;
  constexpr long long kMstBound = 8;
  for (const double p : {0.1, 0.3, 0.6, 1.0}) {
    Rng rng(kSeed);
    const Graph g = connected_gnp(kNodes, p, WeightSpec::uniform(1, 32), rng);
    NetworkMeasures m;
    const long long measured = allocations_of([&] { m = measure(g); });
    const long long mst = allocations_of([&] { (void)kruskal_mst(g); });
    std::printf("G(%d, %.1f), m = %d: measure %lld, kruskal_mst %lld "
                "allocations\n",
                kNodes, p, g.edge_count(), measured, mst);
    EXPECT_GT(m.comm_D, 0);
    EXPECT_LE(measured, kMeasureBound);
    EXPECT_LE(mst, kMstBound);
  }
}

TEST(AllocationBudget, SamplersAllocateNothing) {
  constexpr int kDraws = 100000;
  Rng rng(kSeed);
  std::int64_t ints = 0;
  double reals = 0;
  int hits = 0;
  const long long made = allocations_of([&] {
    for (int i = 0; i < kDraws; ++i) {
      ints += rng.uniform_int(1, 16);
      reals += rng.uniform_real(0.1, 0.9);
      hits += rng.chance(0.3) ? 1 : 0;
    }
  });
  std::printf("%d draws of each sampler: %lld allocations\n", kDraws, made);
  EXPECT_GT(ints + hits, 0);
  EXPECT_GT(reals, 0.0);
  EXPECT_EQ(made, 0);
}

TEST(AllocationBudget, GridGraphDoesNotGrowWithEdgeCount) {
  // A handful of vectors: the edge table and the CSR arrays. One weight
  // draw per edge, so a sampler check that builds its message first
  // makes this about m + 10 (179,410 here).
  constexpr long long kGridBound = 16;
  Rng rng(kSeed);
  Graph g(0);
  const long long made = allocations_of(
      [&] { g = grid_graph(300, 300, WeightSpec::uniform(1, 16), rng); });
  std::printf("grid_graph(300, 300), m = %d: %lld allocations\n",
              g.edge_count(), made);
  EXPECT_LE(made, kGridBound);
}

// The factory's one make_unique per node plus the engine's own vectors.
// A per-node check in PooledStore::from_factory that builds its message
// first doubles it to 2n + 10.
TEST(AllocationBudget, FactoryNetworkAllocatesOncePerNode) {
  constexpr long long kEngineBound = 16;
  const Graph g = grid();
  const long long n = g.node_count();
  const long long made = allocations_of([&] {
    Network net(g, [](NodeId) { return std::make_unique<Gossip>(); },
                make_exact_delay(), kSeed);
  });
  std::printf("factory-built Network, n = %lld: %lld allocations\n", n,
              made);
  EXPECT_LE(made, n + kEngineBound);
}

}  // namespace
}  // namespace csca
