#include "partition/tree_edge_cover.h"

#include <algorithm>
#include <cmath>

#include "graph/shortest_paths.h"

namespace csca {

namespace {
// Shortest-path tree of the subgraph induced by the cluster, rooted at
// the leader, expressed as a partial RootedTree over g.
RootedTree induced_spt(const Graph& g, const Cluster& cluster,
                       NodeId leader) {
  std::vector<char> in(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v : cluster) in[static_cast<std::size_t>(v)] = 1;

  std::vector<EdgeId> parent;
  DijkstraLimits limits;
  limits.nodes = &in;
  limits.parent_edge = &parent;
  DijkstraScratch scratch;
  dijkstra_run(g, leader, limits, scratch);
  for (NodeId v : cluster) {
    ensure(scratch.dist[static_cast<std::size_t>(v)] !=
               ShortestPaths::kUnreachable,
           "cluster must induce a connected subgraph");
  }
  return RootedTree::from_parent_edges(g, leader, std::move(parent));
}
}  // namespace

std::vector<int> TreeEdgeCover::trees_covering_edge(const Graph& g,
                                                    EdgeId e) const {
  const Edge& ed = g.edge(e);
  std::vector<int> out;
  for (int i = 0; i < size(); ++i) {
    const Cluster& c = trees[static_cast<std::size_t>(i)].cluster;
    if (std::binary_search(c.begin(), c.end(), ed.u) &&
        std::binary_search(c.begin(), c.end(), ed.v)) {
      out.push_back(i);
    }
  }
  return out;
}

TreeEdgeCover build_tree_edge_cover(const Graph& g, int k) {
  require(k >= 1, "tree edge-cover requires k >= 1");
  require(g.edge_count() >= 1, "tree edge-cover requires at least one edge");
  const Cover paths = neighborhood_path_cover(g);
  const Cover coarse = coarsen(g, paths, k);
  TreeEdgeCover out;
  out.trees.reserve(coarse.clusters.size());
  for (const Cluster& c : coarse.clusters) {
    const NodeId leader = cluster_center(g, c);
    out.trees.push_back(CoverTree{c, leader, induced_spt(g, c, leader)});
  }
  return out;
}

TreeEdgeCover build_tree_edge_cover(const Graph& g) {
  const int n = g.node_count();
  const int k = std::max(
      1, static_cast<int>(std::ceil(std::log2(std::max(2, n)))));
  return build_tree_edge_cover(g, k);
}

bool covers_all_edges(const Graph& g, const TreeEdgeCover& tec) {
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (tec.trees_covering_edge(g, e).empty()) return false;
  }
  return true;
}

int max_tree_edge_sharing(const Graph& g, const TreeEdgeCover& tec) {
  std::vector<int> uses(static_cast<std::size_t>(g.edge_count()), 0);
  for (const CoverTree& ct : tec.trees) {
    for (EdgeId e : ct.tree.edge_set()) {
      ++uses[static_cast<std::size_t>(e)];
    }
  }
  return uses.empty() ? 0 : *std::max_element(uses.begin(), uses.end());
}

Weight max_tree_depth(const Graph& g, const TreeEdgeCover& tec) {
  Weight depth = 0;
  for (const CoverTree& ct : tec.trees) {
    depth = std::max(depth, ct.tree.height(g));
  }
  return depth;
}

}  // namespace csca
