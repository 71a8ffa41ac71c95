#include "partition/cover.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "graph/shortest_paths.h"

namespace csca {

std::vector<Weight> restricted_distances(const Graph& g, NodeId src,
                                         const std::vector<char>& allowed) {
  g.check_node(src);
  require(allowed.size() == static_cast<std::size_t>(g.node_count()),
          "allowed mask size must equal node count");
  require(allowed[static_cast<std::size_t>(src)] != 0,
          "source must be allowed");
  DijkstraLimits limits;
  limits.nodes = &allowed;
  DijkstraScratch scratch;
  dijkstra_run(g, src, limits, scratch);
  return std::move(scratch.dist);
}

namespace {
std::vector<char> membership(const Graph& g, const Cluster& s) {
  std::vector<char> in(static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v : s) {
    g.check_node(v);
    in[static_cast<std::size_t>(v)] = 1;
  }
  return in;
}

// Eccentricity of src within the induced subgraph; kUnreachable if some
// cluster node cannot be reached inside the cluster.
Weight restricted_eccentricity(const Graph& g, const Cluster& s,
                               NodeId src, const std::vector<char>& in) {
  const auto dist = restricted_distances(g, src, in);
  Weight ecc = 0;
  for (NodeId v : s) {
    const Weight d = dist[static_cast<std::size_t>(v)];
    if (d == ShortestPaths::kUnreachable) return ShortestPaths::kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}
}  // namespace

bool is_cluster(const Graph& g, const Cluster& s) {
  if (s.empty()) return false;
  if (!std::is_sorted(s.begin(), s.end())) return false;
  if (std::adjacent_find(s.begin(), s.end()) != s.end()) return false;
  if (s.front() < 0 || s.back() >= g.node_count()) return false;
  const auto in = membership(g, s);
  return restricted_eccentricity(g, s, s.front(), in) !=
         ShortestPaths::kUnreachable;
}

namespace {
std::pair<NodeId, Weight> center_and_radius(const Graph& g,
                                            const Cluster& s) {
  require(is_cluster(g, s), "argument must be a valid cluster");
  const auto in = membership(g, s);
  NodeId best = s.front();
  Weight best_ecc = restricted_eccentricity(g, s, best, in);
  for (std::size_t i = 1; i < s.size(); ++i) {
    const Weight ecc = restricted_eccentricity(g, s, s[i], in);
    if (ecc < best_ecc) {
      best_ecc = ecc;
      best = s[i];
    }
  }
  return {best, best_ecc};
}
}  // namespace

Weight cluster_radius(const Graph& g, const Cluster& s) {
  return center_and_radius(g, s).second;
}

NodeId cluster_center(const Graph& g, const Cluster& s) {
  return center_and_radius(g, s).first;
}

Weight cover_radius(const Graph& g, const Cover& cover) {
  Weight r = 0;
  for (const Cluster& s : cover.clusters) {
    r = std::max(r, cluster_radius(g, s));
  }
  return r;
}

int cover_degree(const Cover& cover, NodeId v) {
  int deg = 0;
  for (const Cluster& s : cover.clusters) {
    if (std::binary_search(s.begin(), s.end(), v)) ++deg;
  }
  return deg;
}

int cover_max_degree(const Graph& g, const Cover& cover) {
  int max_deg = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    max_deg = std::max(max_deg, cover_degree(cover, v));
  }
  return max_deg;
}

bool is_cover(const Graph& g, const Cover& cover) {
  std::vector<char> covered(static_cast<std::size_t>(g.node_count()), 0);
  for (const Cluster& s : cover.clusters) {
    if (!is_cluster(g, s)) return false;
    for (NodeId v : s) covered[static_cast<std::size_t>(v)] = 1;
  }
  return std::all_of(covered.begin(), covered.end(),
                     [](char c) { return c != 0; });
}

bool subsumes(const Cover& t, const Cover& s) {
  for (const Cluster& si : s.clusters) {
    const bool contained = std::any_of(
        t.clusters.begin(), t.clusters.end(), [&](const Cluster& tj) {
          return std::includes(tj.begin(), tj.end(), si.begin(), si.end());
        });
    if (!contained) return false;
  }
  return true;
}

Cover coarsen(const Graph& g, const Cover& s, int k) {
  require(k >= 1, "coarsen requires k >= 1");
  require(is_cover(g, s), "coarsen requires a valid initial cover");

  const auto cluster_count = s.clusters.size();
  // Growth threshold |S|^(1/k): a merge round that does not multiply the
  // absorbed-cluster count by more than this factor terminates the
  // cluster, bounding rounds by k-1 and hence the radius by (2k-1)Rad(S).
  const double threshold =
      std::pow(static_cast<double>(cluster_count), 1.0 / k);

  std::vector<char> remaining(cluster_count, 1);
  std::size_t remaining_count = cluster_count;
  Cover out;

  // Per-vertex lists of the input clusters containing it, for fast
  // "which remaining clusters intersect Y" queries.
  std::vector<std::vector<int>> clusters_at(
      static_cast<std::size_t>(g.node_count()));
  for (std::size_t i = 0; i < cluster_count; ++i) {
    for (NodeId v : s.clusters[i]) {
      clusters_at[static_cast<std::size_t>(v)].push_back(
          static_cast<int>(i));
    }
  }

  std::size_t scan_from = 0;
  while (remaining_count > 0) {
    while (!remaining[scan_from]) ++scan_from;
    // Z: indices of absorbed clusters; Y: their union as a node mask.
    std::vector<int> z{static_cast<int>(scan_from)};
    std::vector<char> in_z(cluster_count, 0);
    in_z[scan_from] = 1;
    std::vector<char> y_mask(static_cast<std::size_t>(g.node_count()), 0);
    std::vector<NodeId> y_nodes;
    auto absorb = [&](int ci) {
      for (NodeId v : s.clusters[static_cast<std::size_t>(ci)]) {
        if (!y_mask[static_cast<std::size_t>(v)]) {
          y_mask[static_cast<std::size_t>(v)] = 1;
          y_nodes.push_back(v);
        }
      }
    };
    absorb(static_cast<int>(scan_from));

    while (true) {
      // Z' = remaining clusters intersecting Y.
      std::vector<int> z_next;
      std::vector<char> in_z_next(cluster_count, 0);
      for (NodeId v : y_nodes) {
        for (int ci : clusters_at[static_cast<std::size_t>(v)]) {
          if (remaining[static_cast<std::size_t>(ci)] &&
              !in_z_next[static_cast<std::size_t>(ci)]) {
            in_z_next[static_cast<std::size_t>(ci)] = 1;
            z_next.push_back(ci);
          }
        }
      }
      if (static_cast<double>(z_next.size()) <=
          threshold * static_cast<double>(z.size())) {
        break;  // growth stalled; emit Y built from the current Z
      }
      for (int ci : z_next) {
        if (!in_z[static_cast<std::size_t>(ci)]) absorb(ci);
      }
      z = std::move(z_next);
      in_z = std::move(in_z_next);
    }

    for (int ci : z) {
      ensure(remaining[static_cast<std::size_t>(ci)] != 0,
             "absorbed cluster must still be remaining");
      remaining[static_cast<std::size_t>(ci)] = 0;
      --remaining_count;
    }
    std::sort(y_nodes.begin(), y_nodes.end());
    out.clusters.push_back(std::move(y_nodes));
  }

  ensure(is_cover(g, out), "coarsened result must be a cover");
  ensure(subsumes(out, s), "coarsened result must subsume the input");
  return out;
}

Cover singleton_cover(const Graph& g) {
  Cover out;
  out.clusters.reserve(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out.clusters.push_back(Cluster{v});
  }
  return out;
}

Cover neighborhood_path_cover(const Graph& g) {
  Cover out;
  out.clusters.reserve(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    const auto sp = dijkstra(g, ed.u);
    auto p = sp.path_to(g, ed.v);
    Cluster c{ed.u};
    NodeId cur = ed.u;
    for (EdgeId pe : p) {
      cur = g.other(pe, cur);
      c.push_back(cur);
    }
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    out.clusters.push_back(std::move(c));
  }
  return out;
}

}  // namespace csca
