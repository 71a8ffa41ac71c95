#include "graph/graph.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/disjoint_sets.h"
#include "graph/families.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "sync/synchronizer.h"

namespace csca {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.total_weight(), 0);
  EXPECT_EQ(g.max_weight(), 0);
}

TEST(Graph, RejectsNegativeNodeCount) {
  EXPECT_THROW(Graph(-1), PreconditionError);
}

TEST(Graph, AddEdgeBasics) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 5);
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.edge(e).u, 0);
  EXPECT_EQ(g.edge(e).v, 1);
  EXPECT_EQ(g.weight(e), 5);
  EXPECT_EQ(g.other(e, 0), 1);
  EXPECT_EQ(g.other(e, 1), 0);
  EXPECT_EQ(g.total_weight(), 5);
  EXPECT_EQ(g.max_weight(), 5);
}

TEST(Graph, OtherRejectsNonEndpoint) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 1, 5);
  EXPECT_THROW(g.other(e, 2), PreconditionError);
}

TEST(Graph, RejectsSelfLoopsParallelEdgesAndBadWeights) {
  Graph g(3);
  g.add_edge(0, 1, 2);
  EXPECT_THROW(g.add_edge(1, 1, 1), PreconditionError);
  EXPECT_THROW(g.add_edge(0, 1, 3), PreconditionError);
  EXPECT_THROW(g.add_edge(1, 0, 3), PreconditionError);  // reversed too
  EXPECT_THROW(g.add_edge(1, 2, 0), PreconditionError);
  EXPECT_THROW(g.add_edge(1, 2, -4), PreconditionError);
  EXPECT_THROW(g.add_edge(1, 3, 1), PreconditionError);  // out of range
}

TEST(Graph, IncidentListsAndDegree) {
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1, 1);
  const EdgeId e02 = g.add_edge(0, 2, 2);
  const EdgeId e12 = g.add_edge(1, 2, 3);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(3), 0);
  const auto inc0 = g.incident(0);
  EXPECT_EQ(std::vector<EdgeId>(inc0.begin(), inc0.end()),
            (std::vector<EdgeId>{e01, e02}));
  const auto inc2 = g.incident(2);
  EXPECT_EQ(std::vector<EdgeId>(inc2.begin(), inc2.end()),
            (std::vector<EdgeId>{e02, e12}));
}

TEST(Graph, FindEdgeEitherOrientation) {
  Graph g(3);
  const EdgeId e = g.add_edge(2, 0, 7);
  EXPECT_EQ(g.find_edge(0, 2), e);
  EXPECT_EQ(g.find_edge(2, 0), e);
  EXPECT_EQ(g.find_edge(0, 1), kNoEdge);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
}

TEST(Graph, TotalAndMaxWeightAccumulate) {
  Graph g(4);
  g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 4);
  EXPECT_EQ(g.total_weight(), 15);
  EXPECT_EQ(g.max_weight(), 10);
}

TEST(Graph, TotalWeightOfEdgeSubset) {
  Graph g(4);
  const EdgeId a = g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 1);
  const EdgeId c = g.add_edge(2, 3, 4);
  const std::vector<EdgeId> subset{a, c};
  EXPECT_EQ(total_weight(g, subset), 14);
}

TEST(Graph, NeighborsPairsEdgeWithOtherEndpoint) {
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1, 1);
  const EdgeId e02 = g.add_edge(0, 2, 2);
  const EdgeId e12 = g.add_edge(1, 2, 3);
  std::vector<std::pair<EdgeId, NodeId>> seen;
  for (const Arc a : g.neighbors(2)) seen.emplace_back(a.edge, a.node);
  EXPECT_EQ(seen, (std::vector<std::pair<EdgeId, NodeId>>{{e02, 0},
                                                          {e12, 1}}));
  EXPECT_EQ(g.neighbors(3).size(), 0u);
  EXPECT_TRUE(g.neighbors(3).empty());
  EXPECT_EQ(g.neighbors(0).size(), static_cast<std::size_t>(g.degree(0)));
  EXPECT_EQ(g.neighbors(0)[0].edge, e01);
}

// The CSR arrays rebuild lazily after mutation; slices must always
// list a node's edges in insertion (edge-id) order — the layout every
// golden ledger was recorded against.
TEST(Graph, CsrRebuildsAfterInterleavedReadsAndInserts) {
  Graph g(5);
  const EdgeId e01 = g.add_edge(0, 1, 1);
  EXPECT_EQ(g.incident(0).size(), 1u);  // forces a CSR build...
  const EdgeId e03 = g.add_edge(0, 3, 2);  // ...then dirties it
  const EdgeId e04 = g.add_edge(0, 4, 3);
  const auto inc0 = g.incident(0);
  EXPECT_EQ(std::vector<EdgeId>(inc0.begin(), inc0.end()),
            (std::vector<EdgeId>{e01, e03, e04}));
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(2), 0);
}

TEST(Graph, FindEdgeSurvivesIndexGrowth) {
  const int n = 200;  // path: enough inserts to grow the hash index
  Graph g(n);
  std::vector<EdgeId> ids;
  for (NodeId v = 0; v + 1 < n; ++v) ids.push_back(g.add_edge(v, v + 1, 1));
  for (NodeId v = 0; v + 1 < n; ++v) {
    EXPECT_EQ(g.find_edge(v, v + 1), ids[static_cast<std::size_t>(v)]);
    EXPECT_EQ(g.find_edge(v + 1, v), ids[static_cast<std::size_t>(v)]);
  }
  EXPECT_EQ(g.find_edge(0, n - 1), kNoEdge);
}

TEST(Graph, MemoryBytesGrowsWithEdges) {
  Graph g(16);
  const std::size_t empty = g.memory_bytes();
  EXPECT_GT(empty, 0u);
  for (NodeId v = 0; v + 1 < 16; ++v) g.add_edge(v, v + 1, 1);
  EXPECT_EQ(g.incident(8).size(), 2u);
  EXPECT_GT(g.memory_bytes(), empty);
}

// Brute-force answers from the edge table alone: the reference both
// lookup paths (pair index while under construction, CSR scan once
// built) must agree with.
EdgeId scan_edges(const Graph& g, NodeId u, NodeId v) {
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if ((ed.u == u && ed.v == v) || (ed.u == v && ed.v == u)) return e;
  }
  return kNoEdge;
}

int scan_degree(const Graph& g, NodeId v) {
  int d = 0;
  for (const Edge& ed : g.edges()) d += (ed.u == v) + (ed.v == v);
  return d;
}

// Every ordered pair's find_edge/has_edge answer, queried on an
// unbuilt graph (index path) or a built one (min-degree scan path).
std::vector<EdgeId> all_lookups(const Graph& g) {
  std::vector<EdgeId> out;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const EdgeId e = g.find_edge(u, v);
      EXPECT_EQ(g.has_edge(u, v), e != kNoEdge);
      out.push_back(e);
    }
  }
  return out;
}

// The incremental path: g's edge list fed through add_edge one edge at
// a time, which leaves the CSR unbuilt and the pair index live.
Graph add_edge_replay(const Graph& g) {
  Graph out(g.node_count());
  for (const Edge& e : g.edges()) out.add_edge(e.u, e.v, e.w);
  return out;
}

TEST(Graph, LookupsAgreeBeforeAndAfterCsrBuild) {
  Rng rng(3);
  // Generators return built graphs; their replays are the unbuilt ones.
  const std::vector<Graph> graphs = {
      add_edge_replay(grid_graph(7, 9, WeightSpec::uniform(1, 9), rng)),
      add_edge_replay(cycle_graph(30, WeightSpec::uniform(1, 9), rng)),
      add_edge_replay(complete_graph(40, WeightSpec::uniform(1, 9), rng))};
  for (const Graph& g : graphs) {
    std::vector<EdgeId> expected;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (NodeId v = 0; v < g.node_count(); ++v) {
        expected.push_back(scan_edges(g, u, v));
      }
    }
    // Fresh from the replay the CSR is unbuilt: these go through the
    // pair index. degree() is the first adjacency read.
    EXPECT_EQ(all_lookups(g), expected);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      EXPECT_EQ(g.degree(v), scan_degree(g, v)) << v;
    }
    EXPECT_EQ(all_lookups(g), expected);
  }
}

TEST(Graph, AddEdgeAfterReadKeepsLookupsRight) {
  Graph g(6);
  const EdgeId e01 = g.add_edge(0, 1, 1);
  const EdgeId e12 = g.add_edge(1, 2, 1);
  EXPECT_EQ(g.degree(1), 2);  // builds the CSR, releasing the index
  EXPECT_THROW(g.add_edge(1, 0, 4), PreconditionError);
  EXPECT_THROW(g.add_edge(2, 1, 4), PreconditionError);
  const EdgeId e15 = g.add_edge(1, 5, 2);  // rebuilds the index
  EXPECT_THROW(g.add_edge(5, 1, 2), PreconditionError);
  EXPECT_EQ(g.find_edge(0, 1), e01);
  EXPECT_EQ(g.find_edge(2, 1), e12);
  EXPECT_EQ(g.find_edge(5, 1), e15);
  EXPECT_EQ(g.find_edge(0, 5), kNoEdge);
  EXPECT_EQ(g.degree(1), 3);  // second build
  EXPECT_EQ(g.find_edge(1, 5), e15);
  EXPECT_EQ(g.find_edge(5, 0), kNoEdge);
  EXPECT_THROW(g.add_edge(0, 1, 1), PreconditionError);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.total_weight(), 4);
}

// Reads every observable of a graph that an add_edge replay of the same
// edge list must reproduce. `born` is built; `replay` is not, so its
// lookups go through the pair index before its adjacency is read.
void expect_same_graph(const Graph& born, const Graph& replay) {
  ASSERT_EQ(born.node_count(), replay.node_count());
  ASSERT_EQ(born.edge_count(), replay.edge_count());
  if (born.node_count() <= 200) {
    EXPECT_EQ(all_lookups(replay), all_lookups(born));
  }
  for (EdgeId e = 0; e < born.edge_count(); ++e) {
    EXPECT_EQ(born.edge(e).u, replay.edge(e).u) << e;
    EXPECT_EQ(born.edge(e).v, replay.edge(e).v) << e;
    EXPECT_EQ(born.edge(e).w, replay.edge(e).w) << e;
  }
  for (NodeId v = 0; v < born.node_count(); ++v) {
    const auto a = born.incident(v);
    const auto b = replay.incident(v);
    EXPECT_EQ(std::vector<EdgeId>(a.begin(), a.end()),
              std::vector<EdgeId>(b.begin(), b.end()))
        << v;
    std::vector<std::pair<EdgeId, NodeId>> arcs_a;
    std::vector<std::pair<EdgeId, NodeId>> arcs_b;
    for (const Arc x : born.neighbors(v)) {
      arcs_a.emplace_back(x.edge, x.node);
    }
    for (const Arc x : replay.neighbors(v)) {
      arcs_b.emplace_back(x.edge, x.node);
    }
    EXPECT_EQ(arcs_a, arcs_b) << v;
  }
  EXPECT_EQ(born.total_weight(), replay.total_weight());
  EXPECT_EQ(born.max_weight(), replay.max_weight());
}

TEST(Graph, BornBuiltFamiliesMatchTheirAddEdgeReplays) {
  for (const std::string& family : family_names()) {
    for (const int n : {12, 64}) {
      SCOPED_TRACE(family + " n=" + std::to_string(n));
      const Graph born = make_family(family, n, 7);
      expect_same_graph(born, add_edge_replay(born));
    }
  }
}

TEST(Graph, BornBuiltGeneratorsAndLoadsMatchTheirAddEdgeReplays) {
  Rng rng(8);
  const Graph gnp = make_family("gnp", 30, 9);
  std::stringstream text;
  write_edge_list(text, gnp);
  const std::vector<Graph> graphs = {
      complete_graph(40, WeightSpec::uniform(1, 9), rng),
      random_tree(50, WeightSpec::power_of_two(0, 6), rng),
      connected_gnp(40, 0.3, WeightSpec::uniform(1, 9), rng),
      random_geometric(40, 0.2, 32, rng),
      heavy_chords_graph(20, 64),
      normalized_chords_graph(24, 5),
      normalized_copy(gnp),
      read_edge_list(text)};
  for (const Graph& born : graphs) {
    expect_same_graph(born, add_edge_replay(born));
  }
}

// Expects Graph(n, edges) to throw PreconditionError whose message
// carries `what`.
void expect_rejected(int n, std::vector<Edge> edges,
                     const std::string& what) {
  try {
    const Graph g(n, std::move(edges));
    ADD_FAILURE() << "accepted an edge list with: " << what;
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Graph, EdgeListConstructorRejectsEachViolation) {
  const std::string range = "node id out of range";
  expect_rejected(3, {{0, 1, 1}, {1, 3, 1}}, range);
  expect_rejected(3, {{0, 1, 1}, {-1, 2, 1}}, range);
  expect_rejected(3, {{0, 1, 1}, {2, 2, 1}}, "self-loops are not allowed");
  expect_rejected(3, {{0, 1, 0}}, "edge weights must be >= 1");
  expect_rejected(3, {{0, 1, 2}, {1, 2, -4}}, "edge weights must be >= 1");
  // The first bad edge is the one named.
  expect_rejected(4, {{0, 1, 1}, {2, 2, 1}, {1, 9, 1}}, "(edge 1)");
  EXPECT_THROW(Graph(-1, {}), PreconditionError);
}

TEST(Graph, EdgeListConstructorRejectsParallelEdgesInShortSlices) {
  const std::string parallel = "parallel edges are not allowed";
  expect_rejected(4, {{0, 1, 1}, {1, 2, 1}, {0, 1, 3}}, parallel);
  expect_rejected(4, {{0, 1, 1}, {1, 2, 1}, {1, 0, 3}}, parallel);
  expect_rejected(4, {{2, 3, 1}, {1, 2, 1}, {3, 2, 3}},
                  "(edges 0 and 2 join 2 and 3)");
}

TEST(Graph, EdgeListConstructorRejectsParallelEdgesInSortedSlices) {
  // Hubs 0 and 1 share 40 leaves, so both endpoints of the repeated
  // pair {0, 1} have slices long enough to be sorted, not compared
  // pairwise: only the sorted check can see the repeat.
  const auto two_hubs = [](Edge repeat) {
    std::vector<Edge> edges{{0, 1, 1}};
    for (NodeId leaf = 2; leaf < 42; ++leaf) {
      edges.push_back({0, leaf, 1});
      edges.push_back({1, leaf, 1});
    }
    edges.push_back(repeat);
    return edges;
  };
  EXPECT_EQ(Graph(42, two_hubs({2, 3, 1})).degree(0), 41);
  const std::string parallel = "parallel edges are not allowed";
  expect_rejected(42, two_hubs({0, 1, 5}), parallel);
  expect_rejected(42, two_hubs({1, 0, 5}), parallel);
}

TEST(Graph, AddEdgeExtendsABornBuiltGraph) {
  Graph g(4, {{0, 1, 2}, {1, 2, 3}});
  EXPECT_EQ(g.find_edge(2, 1), 1);
  EXPECT_THROW(g.add_edge(1, 0, 4), PreconditionError);
  const EdgeId e = g.add_edge(2, 3, 5);
  EXPECT_EQ(g.find_edge(3, 2), e);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_EQ(g.total_weight(), 10);
  EXPECT_EQ(g.max_weight(), 5);
}

// The graph store's budget (docs/scale.md): edge table 16 B/edge, CSR
// arrays 8 B/arc, 32-bit offsets, and no pair index once built.
TEST(Graph, GridHoldsAtMost72BytesPerNode) {
  Rng rng(5);
  const Graph g = grid_graph(100, 100, WeightSpec::uniform(1, 16), rng);
  const double bpn = static_cast<double>(g.memory_bytes()) /
                     static_cast<double>(g.node_count());
  EXPECT_LE(bpn, 72.0);
}

TEST(DisjointSets, UniteAndFind) {
  DisjointSets ds(5);
  EXPECT_FALSE(ds.same(0, 1));
  EXPECT_TRUE(ds.unite(0, 1));
  EXPECT_TRUE(ds.same(0, 1));
  EXPECT_FALSE(ds.unite(1, 0));
  EXPECT_TRUE(ds.unite(2, 3));
  EXPECT_TRUE(ds.unite(0, 3));
  EXPECT_TRUE(ds.same(1, 2));
  EXPECT_EQ(ds.set_size(1), 4);
  EXPECT_EQ(ds.set_size(4), 1);
}

TEST(DisjointSets, RangeChecks) {
  DisjointSets ds(2);
  EXPECT_THROW(ds.find(2), PreconditionError);
  EXPECT_THROW(ds.find(-1), PreconditionError);
}

}  // namespace
}  // namespace csca
