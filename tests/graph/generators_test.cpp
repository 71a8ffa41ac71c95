#include "graph/generators.h"

#include <gtest/gtest.h>

#include "graph/measures.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "graph/traversal.h"

namespace csca {
namespace {

TEST(WeightSpecTest, ConstantAlwaysSameValue) {
  Rng rng(1);
  const auto spec = WeightSpec::constant(7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(spec.sample(rng), 7);
}

TEST(WeightSpecTest, UniformInRange) {
  Rng rng(2);
  const auto spec = WeightSpec::uniform(3, 9);
  for (int i = 0; i < 200; ++i) {
    const Weight w = spec.sample(rng);
    EXPECT_GE(w, 3);
    EXPECT_LE(w, 9);
  }
}

TEST(WeightSpecTest, PowerOfTwoProducesPowers) {
  Rng rng(3);
  const auto spec = WeightSpec::power_of_two(0, 6);
  for (int i = 0; i < 200; ++i) {
    const Weight w = spec.sample(rng);
    EXPECT_GE(w, 1);
    EXPECT_LE(w, 64);
    EXPECT_EQ(w & (w - 1), 0) << w << " is not a power of two";
  }
}

TEST(WeightSpecTest, RejectsInvalidRanges) {
  EXPECT_THROW(WeightSpec::constant(0), PreconditionError);
  EXPECT_THROW(WeightSpec::uniform(5, 2), PreconditionError);
  EXPECT_THROW(WeightSpec::uniform(0, 2), PreconditionError);
  EXPECT_THROW(WeightSpec::power_of_two(3, 2), PreconditionError);
}

TEST(Generators, OversizedGridAndCompleteGraphsRejectedUpFront) {
  Rng rng(1);
  // 4.9e9 nodes and 2.4e9 edges: both overflow int ids.
  EXPECT_THROW(grid_graph(70000, 70000, WeightSpec::constant(1), rng),
               PreconditionError);
  EXPECT_THROW(complete_graph(70000, WeightSpec::constant(1), rng),
               PreconditionError);
}

TEST(Generators, PathShape) {
  Rng rng(4);
  Graph g = path_graph(6, WeightSpec::constant(1), rng);
  EXPECT_EQ(g.node_count(), 6);
  EXPECT_EQ(g.edge_count(), 5);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(3), 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CycleShape) {
  Rng rng(5);
  Graph g = cycle_graph(7, WeightSpec::constant(1), rng);
  EXPECT_EQ(g.edge_count(), 7);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 2);
}

TEST(Generators, GridShape) {
  Rng rng(6);
  Graph g = grid_graph(3, 4, WeightSpec::constant(1), rng);
  EXPECT_EQ(g.node_count(), 12);
  EXPECT_EQ(g.edge_count(), 3 * 3 + 2 * 4);  // horizontal + vertical
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 2);      // corner
  EXPECT_EQ(g.degree(1), 3);      // border
  EXPECT_EQ(g.degree(1 * 4 + 1), 4);  // interior
}

TEST(Generators, CompleteShape) {
  Rng rng(7);
  Graph g = complete_graph(6, WeightSpec::constant(1), rng);
  EXPECT_EQ(g.edge_count(), 15);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 60));
    Graph g = random_tree(n, WeightSpec::uniform(1, 4), rng);
    EXPECT_EQ(g.edge_count(), n - 1);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, ConnectedGnpIsConnectedAtAllDensities) {
  Rng rng(9);
  for (double p : {0.0, 0.05, 0.3, 1.0}) {
    Graph g = connected_gnp(25, p, WeightSpec::uniform(1, 10), rng);
    EXPECT_TRUE(is_connected(g)) << "p=" << p;
    EXPECT_GE(g.edge_count(), 24);
  }
}

TEST(Generators, ConnectedGnpDensityOneIsComplete) {
  Rng rng(10);
  Graph g = connected_gnp(10, 1.0, WeightSpec::constant(2), rng);
  EXPECT_EQ(g.edge_count(), 45);
}

TEST(Generators, RandomGeometricConnectedAndWeightsPositive) {
  Rng rng(11);
  Graph g = random_geometric(40, 0.25, 100, rng);
  EXPECT_TRUE(is_connected(g));
  for (const Edge& e : g.edges()) {
    EXPECT_GE(e.w, 1);
    EXPECT_LE(e.w, 142);  // ceil(sqrt(2) * 100)
  }
}

TEST(Generators, LowerBoundFamilyShape) {
  const int n = 9;
  Graph g = lower_bound_family(n, 10);
  // Path edges: 8. Bypass: (0,8),(1,7),(2,6),(3,5) = 4.
  EXPECT_EQ(g.edge_count(), 12);
  EXPECT_TRUE(g.has_edge(0, 8));
  EXPECT_TRUE(g.has_edge(3, 5));
  EXPECT_FALSE(g.has_edge(4, 4));
  EXPECT_EQ(g.weight(g.find_edge(0, 1)), 10);
  EXPECT_EQ(g.weight(g.find_edge(0, 8)), 10000);
  // MST is the pure path (bypass edges too heavy).
  const auto mst = kruskal_mst(g);
  EXPECT_EQ(total_weight(g, mst), 80);
}

TEST(Generators, LowerBoundFamilyEvenSkipsDegeneratePair) {
  // n = 8: pairs (0,7),(1,6),(2,5); (3,4) is a path edge, skipped.
  Graph g = lower_bound_family(8, 10);
  EXPECT_EQ(g.edge_count(), 7 + 3);
}

TEST(Generators, LowerBoundSplitMovesOneBypassToPendants) {
  const int n = 9;
  Graph g = lower_bound_family(n, 10);
  Graph gs = lower_bound_family_split(n, 10, 2);
  EXPECT_EQ(gs.node_count(), n + 2);
  EXPECT_EQ(gs.edge_count(), g.edge_count() + 1);  // one edge -> two
  EXPECT_FALSE(gs.has_edge(2, 6));
  EXPECT_TRUE(gs.has_edge(2, 9));
  EXPECT_TRUE(gs.has_edge(6, 10));
  EXPECT_TRUE(is_connected(gs));
}

TEST(Generators, LowerBoundSplitRejectsBadIndex) {
  EXPECT_THROW(lower_bound_family_split(9, 10, 4), PreconditionError);
  EXPECT_THROW(lower_bound_family_split(9, 10, -1), PreconditionError);
}

TEST(Generators, LowerBoundRejectsOverflowRisk) {
  EXPECT_THROW(lower_bound_family(9, 100000), PreconditionError);
}

TEST(Generators, SptHeavyFamilyRealizesBkj83Bound) {
  // w(T_S) = Theta(n * V): the SPT from 0 takes every direct edge.
  const int n = 20;
  Graph g = spt_heavy_family(n);
  const Weight v = mst_weight(g);
  EXPECT_EQ(v, 2 * (n - 1));  // the light path is the MST
  const auto spt = dijkstra(g, 0).tree(g);
  // Direct edge weight 2v-1 beats the path distance 2v.
  for (NodeId x = 2; x < n; ++x) {
    EXPECT_EQ(spt.depth(g, x), 2 * x - 1);
    EXPECT_EQ(spt.parent(g, x), 0);
  }
  // Total SPT weight ~ n^2 / 4 of V's n: the Theta(n V) blowup.
  EXPECT_GE(spt.weight(g), static_cast<Weight>(n) * v / 8);
}

TEST(Generators, MstDeepFamilyRealizesBkj83Bound) {
  // Diam(T_M) = Theta(n * D): the MST is the rim chain, D is constant.
  const int n = 20;
  Graph g = mst_deep_family(n);
  Rng rng(0);
  const auto m = measure(g);
  EXPECT_LE(m.comm_D, 4);
  const auto t = mst_tree(g, 0);
  EXPECT_GE(t.diameter(g), static_cast<Weight>(n - 3));
  EXPECT_GE(t.diameter(g),
            static_cast<Weight>(n / 8) * m.comm_D);
}

}  // namespace
}  // namespace csca
