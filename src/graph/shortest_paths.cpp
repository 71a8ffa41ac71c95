#include "graph/shortest_paths.h"

#include <utility>

namespace csca {

RootedTree ShortestPaths::tree(const Graph& g) const {
  std::vector<EdgeId> pe = parent_edge;
  return RootedTree::from_parent_edges(g, source, std::move(pe));
}

std::vector<EdgeId> ShortestPaths::path_to(const Graph& g, NodeId v) const {
  require(reachable(v), "node unreachable from source");
  std::vector<EdgeId> rev;
  NodeId cur = v;
  while (cur != source) {
    const EdgeId pe = parent_edge[static_cast<std::size_t>(cur)];
    rev.push_back(pe);
    cur = g.other(pe, cur);
  }
  return {rev.rbegin(), rev.rend()};
}

namespace {
ShortestPaths dijkstra_limited(const Graph& g, NodeId src,
                               DijkstraLimits limits) {
  ShortestPaths out;
  out.source = src;
  limits.parent_edge = &out.parent_edge;
  DijkstraScratch scratch;
  dijkstra_run(g, src, limits, scratch);
  out.dist = std::move(scratch.dist);
  return out;
}
}  // namespace

ShortestPaths dijkstra(const Graph& g, NodeId src) {
  return dijkstra_limited(g, src, {});
}

ShortestPaths dijkstra_subgraph(const Graph& g, NodeId src,
                                const std::vector<char>& allowed_edges) {
  require(allowed_edges.size() == static_cast<std::size_t>(g.edge_count()),
          "allowed_edges mask size must equal edge count");
  DijkstraLimits limits;
  limits.edges = &allowed_edges;
  return dijkstra_limited(g, src, limits);
}

Weight distance(const Graph& g, NodeId u, NodeId v) {
  return dijkstra(g, u).dist[static_cast<std::size_t>(v)];
}

std::int64_t spt_route_violations(const Graph& g, NodeId src,
                                  const std::vector<Weight>& dist) {
  require(dist.size() == static_cast<std::size_t>(g.node_count()),
          "dist must have one entry per node");
  g.check_node(src);
  std::int64_t violations = 0;
  if (dist[static_cast<std::size_t>(src)] != 0) ++violations;
  // No relaxing edge may remain: |dist[u] - dist[v]| <= w(e).
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    const Weight du = dist[static_cast<std::size_t>(ed.u)];
    const Weight dv = dist[static_cast<std::size_t>(ed.v)];
    const Weight gap = du >= dv ? du - dv : dv - du;
    if (gap > ed.w) ++violations;
  }
  // Every non-source node needs a tight incident edge to route home.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (v == src) continue;
    const Weight dv = dist[static_cast<std::size_t>(v)];
    bool tight = false;
    for (const EdgeId e : g.incident(v)) {
      const NodeId u = g.other(e, v);
      if (dist[static_cast<std::size_t>(u)] + g.weight(e) == dv) {
        tight = true;
        break;
      }
    }
    if (!tight) ++violations;
  }
  return violations;
}

}  // namespace csca
