#include "graph/mst.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "graph/disjoint_sets.h"
#include "util/require_lit.h"

namespace csca {

namespace {
// edge_less's key: weight, then the endpoint pair in ascending order.
auto edge_key(const Edge& e) {
  return std::tuple(e.w, std::min(e.u, e.v), std::max(e.u, e.v));
}
}  // namespace

bool edge_less(const Graph& g, EdgeId a, EdgeId b) {
  const auto& edges = g.edges();
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  require_lit(ia < edges.size() && ib < edges.size(), "edge id out of range");
  return edge_key(edges[ia]) < edge_key(edges[ib]);
}

std::vector<EdgeId> kruskal_mst(const Graph& g) {
  const auto& edges = g.edges();
  std::vector<EdgeId> order(edges.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    return edge_key(edges[static_cast<std::size_t>(a)]) <
           edge_key(edges[static_cast<std::size_t>(b)]);
  });
  DisjointSets sets(g.node_count());
  std::vector<EdgeId> mst;
  mst.reserve(static_cast<std::size_t>(std::max(g.node_count() - 1, 0)));
  for (const EdgeId e : order) {
    const Edge& ed = edges[static_cast<std::size_t>(e)];
    if (sets.unite(ed.u, ed.v)) mst.push_back(e);
  }
  return mst;
}

Weight mst_weight(const Graph& g) {
  const auto mst = kruskal_mst(g);
  return total_weight(g, mst);
}

RootedTree mst_tree(const Graph& g, NodeId root) {
  const auto mst = kruskal_mst(g);
  require(static_cast<int>(mst.size()) == g.node_count() - 1,
          "mst_tree requires a connected graph");
  // Orient the edge set away from root by BFS.
  std::vector<std::vector<EdgeId>> adj(
      static_cast<std::size_t>(g.node_count()));
  for (EdgeId e : mst) {
    adj[static_cast<std::size_t>(g.edge(e).u)].push_back(e);
    adj[static_cast<std::size_t>(g.edge(e).v)].push_back(e);
  }
  std::vector<EdgeId> parent(static_cast<std::size_t>(g.node_count()),
                             kNoEdge);
  std::vector<char> seen(static_cast<std::size_t>(g.node_count()), 0);
  seen[static_cast<std::size_t>(root)] = 1;
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (EdgeId e : adj[static_cast<std::size_t>(v)]) {
      const NodeId u = g.other(e, v);
      if (seen[static_cast<std::size_t>(u)]) continue;
      seen[static_cast<std::size_t>(u)] = 1;
      parent[static_cast<std::size_t>(u)] = e;
      stack.push_back(u);
    }
  }
  return RootedTree::from_parent_edges(g, root, std::move(parent));
}

std::int64_t mst_cycle_violations(const Graph& g,
                                  const std::vector<char>& in_tree) {
  require(in_tree.size() == static_cast<std::size_t>(g.edge_count()),
          "in_tree must have one flag per edge");
  const auto n = static_cast<std::size_t>(g.node_count());
  std::int64_t violations = 0;

  // Acyclicity and span: unite along claimed tree edges; a tree edge
  // closing a cycle is one violation, and each missing merge (the
  // forest has more components than the graph) is one violation.
  DisjointSets tree_sets(g.node_count());
  std::vector<std::vector<EdgeId>> adj(n);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (in_tree[static_cast<std::size_t>(e)] == 0) continue;
    const Edge& ed = g.edge(e);
    if (!tree_sets.unite(ed.u, ed.v)) {
      ++violations;
      continue;
    }
    adj[static_cast<std::size_t>(ed.u)].push_back(e);
    adj[static_cast<std::size_t>(ed.v)].push_back(e);
  }
  DisjointSets graph_sets(g.node_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (graph_sets.unite(ed.u, ed.v) && tree_sets.unite(ed.u, ed.v)) {
      // This edge merges two graph components the claimed forest left
      // separate (the unite just merged them in tree_sets too, so the
      // deficit is counted once per missing merge).
      ++violations;
    }
  }

  // Root every forest component to answer path-max queries by walking
  // parent pointers from both endpoints to their LCA.
  std::vector<EdgeId> parent(n, kNoEdge);
  std::vector<NodeId> parent_node(n, kNoNode);
  std::vector<int> depth(n, -1);
  for (NodeId r = 0; r < g.node_count(); ++r) {
    if (depth[static_cast<std::size_t>(r)] >= 0) continue;
    depth[static_cast<std::size_t>(r)] = 0;
    std::vector<NodeId> stack{r};
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (EdgeId e : adj[static_cast<std::size_t>(v)]) {
        const NodeId u = g.other(e, v);
        if (depth[static_cast<std::size_t>(u)] >= 0) continue;
        depth[static_cast<std::size_t>(u)] =
            depth[static_cast<std::size_t>(v)] + 1;
        parent[static_cast<std::size_t>(u)] = e;
        parent_node[static_cast<std::size_t>(u)] = v;
        stack.push_back(u);
      }
    }
  }

  // Cycle property: a non-tree edge whose endpoints the forest connects
  // must not be edge_less than the heaviest (edge_less-max) tree edge
  // on the path between them — otherwise swapping it in improves the
  // forest and the claim is not minimum.
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (in_tree[static_cast<std::size_t>(e)] != 0) continue;
    const Edge& ed = g.edge(e);
    NodeId a = ed.u;
    NodeId b = ed.v;
    if (depth[static_cast<std::size_t>(a)] < 0 ||
        depth[static_cast<std::size_t>(b)] < 0) {
      continue;
    }
    EdgeId heaviest = kNoEdge;
    bool connected = true;
    const auto step = [&](NodeId& v) {
      const EdgeId pe = parent[static_cast<std::size_t>(v)];
      if (pe == kNoEdge) {
        connected = false;
        return;
      }
      if (heaviest == kNoEdge || edge_less(g, heaviest, pe)) heaviest = pe;
      v = parent_node[static_cast<std::size_t>(v)];
    };
    while (connected && a != b) {
      if (depth[static_cast<std::size_t>(a)] >=
          depth[static_cast<std::size_t>(b)]) {
        step(a);
      } else {
        step(b);
      }
    }
    if (connected && heaviest != kNoEdge && edge_less(g, e, heaviest)) {
      ++violations;
    }
  }
  return violations;
}

bool is_minimum_spanning_forest(const Graph& g,
                                std::vector<EdgeId> edge_set) {
  auto reference = kruskal_mst(g);
  std::sort(edge_set.begin(), edge_set.end());
  std::sort(reference.begin(), reference.end());
  return edge_set == reference;
}

}  // namespace csca
