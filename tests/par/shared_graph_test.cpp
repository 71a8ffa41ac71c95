// One Graph read from several threads at once, as RunPool jobs read a
// shared family graph. A built graph's readers take no lock; the first
// read of an unbuilt one builds the CSR under a lock, so concurrent
// first readers (and construction-time find_edge probes racing them)
// are safe. tools/check.sh runs this suite under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "graph/generators.h"

namespace csca {
namespace {

constexpr int kThreads = 4;

// Everything a reader can ask of g, folded into one vector: per-node
// degree and neighbor arcs, then find_edge of every node with its next
// two ids. `lookups_first` only changes the order the reads are made
// in, so on an unbuilt graph some threads start with index probes and
// others with the build.
std::vector<long> read_all(const Graph& g, bool lookups_first = false) {
  std::vector<long> adjacency;
  std::vector<long> lookups;
  const auto read_adjacency = [&] {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      adjacency.push_back(g.degree(v));
      for (const Arc a : g.neighbors(v)) {
        adjacency.push_back(a.edge);
        adjacency.push_back(a.node);
      }
    }
  };
  const auto read_lookups = [&] {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      for (NodeId u = v + 1; u < std::min(v + 3, g.node_count()); ++u) {
        lookups.push_back(g.find_edge(v, u));
        lookups.push_back(g.find_edge(u, v));
      }
    }
  };
  if (lookups_first) read_lookups();
  read_adjacency();
  if (!lookups_first) read_lookups();
  adjacency.insert(adjacency.end(), lookups.begin(), lookups.end());
  return adjacency;
}

// Runs read_all on g from kThreads threads, half of them probing
// find_edge before their first adjacency read.
std::vector<std::vector<long>> read_concurrently(const Graph& g) {
  std::vector<std::vector<long>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, &seen, t] {
      seen[static_cast<std::size_t>(t)] = read_all(g, t % 2 == 1);
    });
  }
  for (std::thread& th : threads) th.join();
  return seen;
}

TEST(SharedGraph, ConcurrentReadersOfABuiltGraphAgree) {
  Rng rng(11);
  const Graph g = grid_graph(30, 30, WeightSpec::uniform(1, 16), rng);
  const std::vector<long> expected = read_all(g);  // builds the CSR
  for (const std::vector<long>& seen : read_concurrently(g)) {
    EXPECT_EQ(seen, expected);
  }
}

TEST(SharedGraph, ConcurrentFirstReadsOfAnUnbuiltGraphAgree) {
  Rng rng(12);
  // Generators return built graphs; add_edge leaves the CSR unbuilt.
  const Graph gnp = connected_gnp(300, 0.05, WeightSpec::uniform(1, 16), rng);
  Graph g(gnp.node_count());
  for (const Edge& e : gnp.edges()) g.add_edge(e.u, e.v, e.w);
  // The copy is built on its own; g's first reads race each other.
  const Graph reference = g;
  const std::vector<long> expected = read_all(reference);
  for (const std::vector<long>& seen : read_concurrently(g)) {
    EXPECT_EQ(seen, expected);
  }
}

}  // namespace
}  // namespace csca
