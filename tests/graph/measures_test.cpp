#include "graph/measures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "graph/families.h"
#include "graph/generators.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "partition/cover.h"

namespace csca {
namespace {

TEST(Measures, PathGraphParameters) {
  Rng rng(1);
  Graph g = path_graph(5, WeightSpec::constant(3), rng);
  const auto m = measure(g);
  EXPECT_EQ(m.n, 5);
  EXPECT_EQ(m.m, 4);
  EXPECT_EQ(m.comm_E, 12);
  EXPECT_EQ(m.comm_V, 12);  // the path is its own MST
  EXPECT_EQ(m.comm_D, 12);
  EXPECT_EQ(m.d, 3);  // neighbors are at exactly one edge
  EXPECT_EQ(m.W, 3);
}

TEST(Measures, HeavyEdgeBypassedByLightPath) {
  // Triangle where the heavy edge's endpoints are close via the light
  // path: d < W, the regime §1.4.2 calls interesting.
  Graph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 2);
  g.add_edge(0, 2, 100);
  const auto m = measure(g);
  EXPECT_EQ(m.W, 100);
  EXPECT_EQ(m.d, 4);       // dist(0,2) = 4 via node 1
  EXPECT_EQ(m.comm_D, 4);  // diameter realized by the same pair
  EXPECT_EQ(m.comm_V, 4);
  EXPECT_EQ(m.comm_E, 104);
}

TEST(Measures, DisconnectedRejected) {
  Graph g(3);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(measure(g), PreconditionError);
  EXPECT_THROW(weighted_diameter(g), PreconditionError);
  EXPECT_THROW(max_neighbor_distance(g), PreconditionError);
}

TEST(Measures, OrderingInvariants) {
  // For any connected graph: D <= V <= E (Fact 6.3 gives Diam(MST) <= V
  // and trivially D <= Diam(MST); MST is a subgraph so V <= E) and
  // d <= min(W, D).
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = connected_gnp(20, 0.2, WeightSpec::uniform(1, 50), rng);
    const auto m = measure(g);
    EXPECT_LE(m.comm_D, m.comm_V);
    EXPECT_LE(m.comm_V, m.comm_E);
    EXPECT_LE(m.d, m.W);
    EXPECT_LE(m.d, m.comm_D);
    EXPECT_LE(m.comm_D, static_cast<Weight>(m.n - 1) * m.W);
  }
}

TEST(Measures, Fact63MstDiameterAtMostNMinusOneTimesD) {
  // Fact 6.3: Diam(MST) <= V <= (n-1) * D.
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = connected_gnp(18, 0.25, WeightSpec::uniform(1, 30), rng);
    const auto m = measure(g);
    const auto t = mst_tree(g, 0);
    EXPECT_LE(t.diameter(g), m.comm_V);
    EXPECT_LE(m.comm_V, static_cast<Weight>(m.n - 1) * m.comm_D);
  }
}

TEST(Measures, Fact65SptWeightAtMostNMinusOneTimesV) {
  // Fact 6.5: w(T_S) <= (n - 1) * V for every source, with the
  // spt_heavy family coming within a constant of saturating it.
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    Graph g = connected_gnp(16, 0.3, WeightSpec::uniform(1, 40), rng);
    const Weight v = mst_weight(g);
    for (NodeId s = 0; s < g.node_count(); ++s) {
      const auto spt = dijkstra(g, s).tree(g);
      EXPECT_LE(spt.weight(g),
                static_cast<Weight>(g.node_count() - 1) * v);
    }
  }
  Graph tight = spt_heavy_family(24);
  const auto spt = dijkstra(tight, 0).tree(tight);
  EXPECT_GE(spt.weight(tight),
            static_cast<Weight>(tight.node_count()) *
                mst_weight(tight) / 8);
}

TEST(Measures, WeightedRadiusAtCenterOfPath) {
  Rng rng(4);
  Graph g = path_graph(5, WeightSpec::constant(2), rng);
  EXPECT_EQ(weighted_radius(g, 2), 4);
  EXPECT_EQ(weighted_radius(g, 0), 8);
}

TEST(Measures, LowerBoundFamilyMeasures) {
  const int n = 9;
  const Weight x = 10;
  Graph g = lower_bound_family(n, x);
  const auto m = measure(g);
  EXPECT_EQ(m.comm_V, static_cast<Weight>(n - 1) * x);  // MST = the path
  // Bypass edges dominate total weight.
  EXPECT_GT(m.comm_E, m.comm_V * 100);
  // Diameter is along the path: (n-1) * X.
  EXPECT_EQ(m.comm_D, static_cast<Weight>(n - 1) * x);
}

// All-pairs distances by Floyd-Warshall: a reference that shares no code
// with the Dijkstra kernel. kUnreachable where disconnected.
std::vector<std::vector<Weight>> floyd_warshall(const Graph& g) {
  constexpr Weight kInf = std::numeric_limits<Weight>::max() / 4;
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<std::vector<Weight>> d(n, std::vector<Weight>(n, kInf));
  for (std::size_t v = 0; v < n; ++v) d[v][v] = 0;
  for (const Edge& e : g.edges()) {
    const auto u = static_cast<std::size_t>(e.u);
    const auto v = static_cast<std::size_t>(e.v);
    d[u][v] = std::min(d[u][v], e.w);
    d[v][u] = std::min(d[v][u], e.w);
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  for (auto& row : d) {
    std::replace(row.begin(), row.end(), kInf, ShortestPaths::kUnreachable);
  }
  return d;
}

// Checks every distance-based parameter of a connected g against
// Floyd-Warshall: measure's comm_D and d, weighted_diameter,
// max_neighbor_distance and weighted_radius from every node.
void expect_matches_reference(const Graph& g) {
  const auto fw = floyd_warshall(g);
  Weight diameter = 0;
  Weight neighbor = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& row = fw[static_cast<std::size_t>(v)];
    const Weight ecc = *std::max_element(row.begin(), row.end());
    EXPECT_EQ(weighted_radius(g, v), ecc) << "node " << v;
    diameter = std::max(diameter, ecc);
    for (const Arc a : g.neighbors(v)) {
      neighbor = std::max(neighbor, row[static_cast<std::size_t>(a.node)]);
    }
  }
  const auto m = measure(g);
  EXPECT_EQ(m.comm_D, diameter);
  EXPECT_EQ(m.d, neighbor);
  EXPECT_EQ(weighted_diameter(g), diameter);
  EXPECT_EQ(max_neighbor_distance(g), neighbor);
}

class MeasuresReference : public ::testing::TestWithParam<std::string> {};

TEST_P(MeasuresReference, DistanceParametersMatchFloydWarshall) {
  for (const int n : {6, 13, 32, 57}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      expect_matches_reference(make_family(GetParam(), n, seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryFamily, MeasuresReference, ::testing::ValuesIn(family_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(MeasuresReferenceEdges, UniformCycleTinyGraphsAndHeavyChord) {
  Rng rng(5);
  // Every node of a uniform cycle has the same eccentricity: the
  // bounds drop one node per run, their worst case.
  expect_matches_reference(cycle_graph(17, WeightSpec::constant(3), rng));
  expect_matches_reference(cycle_graph(16, WeightSpec::constant(1), rng));
  expect_matches_reference(Graph(1));
  Graph two(2);
  two.add_edge(0, 1, 7);
  expect_matches_reference(two);
  expect_matches_reference(heavy_chords_graph(12, 40));
}

TEST(MeasuresReferenceEdges, RestrictedDistancesMatchInducedSubgraph) {
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    const Graph g = make_family("gnp", 30, seed);
    Rng rng(seed);
    std::vector<char> allowed(30);
    for (auto& a : allowed) a = rng.uniform_int(0, 3) != 0 ? 1 : 0;
    allowed[0] = 1;
    // The induced subgraph as an edge mask: both endpoints allowed.
    std::vector<char> induced(static_cast<std::size_t>(g.edge_count()));
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& ed = g.edge(e);
      induced[static_cast<std::size_t>(e)] =
          allowed[static_cast<std::size_t>(ed.u)] &
          allowed[static_cast<std::size_t>(ed.v)];
    }
    const auto sub = dijkstra_subgraph(g, 0, induced);
    EXPECT_EQ(restricted_distances(g, 0, allowed), sub.dist)
        << "seed " << seed;
  }
}

TEST(MeasuresReferenceEdges, DisconnectedThrowsFromEveryEntryPoint) {
  Rng rng(6);
  Graph g = path_graph(4, WeightSpec::constant(2), rng);
  Graph split(5);
  for (const Edge& e : g.edges()) split.add_edge(e.u, e.v, e.w);
  const auto expect_message = [](auto&& call, const std::string& what) {
    try {
      call();
      ADD_FAILURE() << "no throw; expected " << what;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expect_message([&] { measure(split); },
                 "measure requires a connected graph");
  expect_message([&] { weighted_diameter(split); },
                 "weighted_diameter requires a connected graph");
  expect_message([&] { max_neighbor_distance(split); },
                 "max_neighbor_distance requires a connected graph");
  expect_message([&] { weighted_radius(split, 0); },
                 "weighted_radius requires a connected graph");
  expect_message([&] { weighted_radius(split, 5); }, "node id out of range");
}

}  // namespace
}  // namespace csca
