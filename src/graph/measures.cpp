#include "graph/measures.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "graph/mst.h"
#include "graph/shortest_paths.h"
#include "graph/traversal.h"

namespace csca {

namespace {

// Eccentricity of the last run's source: its largest distance. Requires
// a full run on a connected graph.
Weight eccentricity(const DijkstraScratch& scratch) {
  return *std::max_element(scratch.dist.begin(), scratch.dist.end());
}

// Weighted diameter by exact eccentricity bounds (Takes & Kosters,
// "Determining the diameter of small world networks", CIKM 2011). A full
// run from s gives ecc(s) and, by the triangle inequality, bounds every
// node w: max(dist, ecc(s) - dist) <= ecc(w) <= ecc(s) + dist. The
// largest lower bound is a lower bound on the diameter; a node whose
// upper bound cannot exceed it is dropped, and the diameter is known
// once no node is left. Sources alternate between the live node with the
// largest upper bound and the one with the smallest lower bound (lowest
// id on ties). Each run drops at least its source, so the worst case,
// a graph whose nodes all share one eccentricity (a uniform cycle), is
// n runs. on_run(s) sees the scratch of every run. Requires g connected.
template <class OnRun>
Weight bounded_diameter(const Graph& g, DijkstraScratch& scratch,
                        OnRun&& on_run) {
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<Weight> lower(n, 0);
  std::vector<Weight> upper(n, std::numeric_limits<Weight>::max());
  std::vector<NodeId> live(n);
  std::iota(live.begin(), live.end(), 0);
  Weight best = 0;
  bool by_upper = true;
  while (!live.empty()) {
    NodeId s = live.front();
    for (const NodeId w : live) {
      const auto wi = static_cast<std::size_t>(w);
      const auto si = static_cast<std::size_t>(s);
      if (by_upper ? upper[wi] > upper[si] : lower[wi] < lower[si]) s = w;
    }
    by_upper = !by_upper;
    dijkstra_run(g, s, {}, scratch);
    on_run(s);
    const Weight ecc = eccentricity(scratch);
    for (const NodeId w : live) {
      const auto wi = static_cast<std::size_t>(w);
      const Weight dw = scratch.dist[wi];
      lower[wi] = std::max({lower[wi], dw, ecc - dw});
      upper[wi] = std::min(upper[wi], ecc + dw);
      best = std::max(best, lower[wi]);
    }
    std::erase_if(live, [&](NodeId w) {
      return upper[static_cast<std::size_t>(w)] <= best;
    });
  }
  return best;
}

// d = max over edges (v, u) of dist(v, u), where d starts at `d` and a
// node with covered[v] != 0 has had its arcs counted already. Because
// dist(v, u) <= w(v, u), only an arc heavier than the running d can
// raise it, so a node runs only if it has such an arc to an uncovered
// neighbour, and its run stops once those neighbours are settled (all
// lie within the heaviest such arc's weight). Requires g connected.
Weight neighbor_distance(const Graph& g, DijkstraScratch& scratch,
                         std::vector<char>& covered, Weight d) {
  const Edge* const edges = g.edges().data();
  std::vector<NodeId> target_of(static_cast<std::size_t>(g.node_count()),
                                kNoNode);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (covered[static_cast<std::size_t>(v)] != 0) continue;
    covered[static_cast<std::size_t>(v)] = 1;
    int targets = 0;
    DijkstraLimits limits;
    limits.radius = 0;
    for (const Arc a : g.neighbors(v)) {
      const Weight w = edges[static_cast<std::size_t>(a.edge)].w;
      if (covered[static_cast<std::size_t>(a.node)] != 0 || w <= d) continue;
      target_of[static_cast<std::size_t>(a.node)] = v;
      ++targets;
      limits.radius = std::max(limits.radius, w);
    }
    if (targets == 0) continue;
    dijkstra_run(g, v, limits, scratch, [&](NodeId u, Weight du) {
      if (target_of[static_cast<std::size_t>(u)] != v) return true;
      d = std::max(d, du);
      return --targets > 0;
    });
  }
  return d;
}

}  // namespace

Weight weighted_radius(const Graph& g, NodeId v) {
  DijkstraScratch scratch;
  dijkstra_run(g, v, {}, scratch);
  require(std::find(scratch.dist.begin(), scratch.dist.end(),
                    ShortestPaths::kUnreachable) == scratch.dist.end(),
          "weighted_radius requires a connected graph");
  return eccentricity(scratch);
}

Weight weighted_diameter(const Graph& g) {
  require(is_connected(g), "weighted_diameter requires a connected graph");
  DijkstraScratch scratch;
  return bounded_diameter(g, scratch, [](NodeId) {});
}

Weight max_neighbor_distance(const Graph& g) {
  require(is_connected(g),
          "max_neighbor_distance requires a connected graph");
  DijkstraScratch scratch;
  std::vector<char> covered(static_cast<std::size_t>(g.node_count()), 0);
  return neighbor_distance(g, scratch, covered, 0);
}

NetworkMeasures measure(const Graph& g) {
  require(is_connected(g), "measure requires a connected graph");
  NetworkMeasures out;
  out.n = g.node_count();
  out.m = g.edge_count();
  out.comm_E = g.total_weight();
  out.comm_V = mst_weight(g);
  out.W = g.max_weight();
  // The diameter's full runs also count their sources' arcs toward d.
  DijkstraScratch scratch;
  std::vector<char> covered(static_cast<std::size_t>(out.n), 0);
  Weight d = 0;
  out.comm_D = bounded_diameter(g, scratch, [&](NodeId s) {
    for (const Arc a : g.neighbors(s)) {
      d = std::max(d, scratch.dist[static_cast<std::size_t>(a.node)]);
    }
    covered[static_cast<std::size_t>(s)] = 1;
  });
  out.d = neighbor_distance(g, scratch, covered, d);
  return out;
}

}  // namespace csca
