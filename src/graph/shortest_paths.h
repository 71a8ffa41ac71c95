// Centralized single-source shortest paths (Dijkstra).
//
// Serves three roles: (1) the reference oracle every distributed SPT
// algorithm is validated against, (2) a substrate inside centralized
// constructions (the SLT algorithm of §2.2 builds an SPT twice), and
// (3) the engine of the network parameters (graph/measures.h) and of
// cluster radii (partition/cover.h).
//
// dijkstra_run is the one implementation; every other entry point here
// and in src/partition calls it.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "graph/tree.h"
#include "util/require_lit.h"

namespace csca {

/// Result of a single-source shortest-path computation. dist[v] is the
/// weighted distance from the source (kUnreachable if disconnected);
/// parent_edge[v] is the last edge on one shortest path to v.
struct ShortestPaths {
  static constexpr Weight kUnreachable = -1;

  NodeId source = kNoNode;
  std::vector<Weight> dist;
  std::vector<EdgeId> parent_edge;

  bool reachable(NodeId v) const {
    return dist[static_cast<std::size_t>(v)] != kUnreachable;
  }

  /// The shortest-path tree as a RootedTree (paper's SPT). Requires the
  /// graph used to compute this result.
  RootedTree tree(const Graph& g) const;

  /// Edge ids of one shortest path source -> v. Requires reachable(v).
  std::vector<EdgeId> path_to(const Graph& g, NodeId v) const;
};

/// Caller-owned working memory of dijkstra_run. Reused across sources,
/// its vectors keep their capacity: a later run on the same graph
/// allocates only if its heap outgrows every earlier run's. After a
/// run, dist[v] is v's distance from the source, or kUnreachable if v
/// was never reached.
struct DijkstraScratch {
  std::vector<Weight> dist;
  /// (distance, node) min-heap with lazy deletion: an entry whose
  /// distance exceeds dist[node] is stale and skipped.
  std::vector<std::pair<Weight, NodeId>> heap;
};

/// Optional limits on one dijkstra_run; the defaults limit nothing.
struct DijkstraLimits {
  /// If set, arc e is usable iff (*edges)[e] != 0 (one flag per edge).
  const std::vector<char>* edges = nullptr;
  /// If set, node v is enterable iff (*nodes)[v] != 0 (one flag per
  /// node). The source is entered regardless.
  const std::vector<char>* nodes = nullptr;
  /// Nodes farther than this are never reached (left kUnreachable).
  Weight radius = std::numeric_limits<Weight>::max();
  /// If set, receives the last edge of one shortest path to each
  /// reached node (kNoEdge for the source and unreached nodes).
  std::vector<EdgeId>* parent_edge = nullptr;
};

/// The Dijkstra kernel. Settles the nodes reachable from src within the
/// limits, each exactly once, in increasing (distance, id) order, and
/// calls on_settle(v, dist) for each; a false return ends the run there.
/// Each settled node's arcs come from one neighbors(v) slice and their
/// weights straight from g.edges(), whose ids the CSR guarantees valid.
template <class OnSettle>
void dijkstra_run(const Graph& g, NodeId src, const DijkstraLimits& limits,
                  DijkstraScratch& scratch, OnSettle&& on_settle) {
  const auto n = static_cast<std::size_t>(g.node_count());
  require_lit(static_cast<std::size_t>(src) < n, "node id out of range");
  constexpr Weight kUnreachable = ShortestPaths::kUnreachable;
  std::vector<Weight>& dist = scratch.dist;
  auto& heap = scratch.heap;
  dist.assign(n, kUnreachable);
  if (limits.parent_edge != nullptr) limits.parent_edge->assign(n, kNoEdge);
  heap.clear();
  heap.reserve(n);
  const Edge* const edges = g.edges().data();
  const auto later = std::greater<std::pair<Weight, NodeId>>();
  dist[static_cast<std::size_t>(src)] = 0;
  heap.emplace_back(0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [d, v] = heap.back();
    heap.pop_back();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    if (!on_settle(v, d)) return;
    for (const Arc a : g.neighbors(v)) {
      if (limits.edges != nullptr &&
          (*limits.edges)[static_cast<std::size_t>(a.edge)] == 0) {
        continue;
      }
      if (limits.nodes != nullptr &&
          (*limits.nodes)[static_cast<std::size_t>(a.node)] == 0) {
        continue;
      }
      const Weight nd = d + edges[static_cast<std::size_t>(a.edge)].w;
      if (nd > limits.radius) continue;
      Weight& du = dist[static_cast<std::size_t>(a.node)];
      if (du == kUnreachable || nd < du) {
        du = nd;
        if (limits.parent_edge != nullptr) {
          (*limits.parent_edge)[static_cast<std::size_t>(a.node)] = a.edge;
        }
        heap.emplace_back(nd, a.node);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
  }
}

/// dijkstra_run to completion.
inline void dijkstra_run(const Graph& g, NodeId src,
                         const DijkstraLimits& limits,
                         DijkstraScratch& scratch) {
  dijkstra_run(g, src, limits, scratch, [](NodeId, Weight) { return true; });
}

/// Dijkstra from src over non-negative integer weights.
ShortestPaths dijkstra(const Graph& g, NodeId src);

/// Dijkstra restricted to the subgraph G' = (V, E') where E' is the set
/// of edges with allowed_edges[e] != 0. Used by the SLT construction
/// (§2.2 step 6 computes an SPT of the subgraph G').
ShortestPaths dijkstra_subgraph(const Graph& g, NodeId src,
                                const std::vector<char>& allowed_edges);

/// Weighted distance between two nodes (kUnreachable if disconnected).
Weight distance(const Graph& g, NodeId u, NodeId v);

/// Route-consistency certificate check for a claimed distance vector:
/// dist is the single-source shortest-path solution from src iff
/// dist[src] == 0, every edge satisfies the triangle inequality
/// |dist[u] - dist[v]| <= w(e) (no relaxing edge remains), and every
/// non-source node has some incident edge achieving
/// dist[v] == dist[u] + w(e) (a consistent route to follow home).
/// Returns the number of violated conditions — 0 iff dist matches
/// dijkstra(g, src) on a connected graph. Used by the self-stabilizing
/// wrapper to detect an SPT invalidated by churn without re-running the
/// protocol.
std::int64_t spt_route_violations(const Graph& g, NodeId src,
                                  const std::vector<Weight>& dist);

}  // namespace csca
