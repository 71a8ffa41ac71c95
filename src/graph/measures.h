// The paper's cost-sensitive network parameters (§1.3):
//
//   script-E = w(G)        total cost of sending one message on every edge
//   script-V = w(MST)      minimal cost of reaching all vertices
//   script-D = Diam(G)     maximal cost of transmitting between two nodes
//   d        = max_{(u,v) in E} dist(u, v)   (clock-sync parameter, §1.4.2)
//   W        = max edge weight
//
// Script names clash with the unweighted E, V, D, so in code they are
// comm_E / comm_V / comm_D.
#pragma once

#include "graph/graph.h"

namespace csca {

/// All weighted parameters of a connected network, computed once.
struct NetworkMeasures {
  Weight comm_E = 0;  ///< total edge weight w(G)
  Weight comm_V = 0;  ///< MST weight
  Weight comm_D = 0;  ///< weighted diameter
  Weight d = 0;       ///< max over edges (u,v) of dist(u, v)
  Weight W = 0;       ///< max edge weight
  int n = 0;          ///< |V|
  int m = 0;          ///< |E|
};

/// Weighted diameter Diam(G), by exact eccentricity bounds (Takes &
/// Kosters, CIKM 2011): usually a handful of Dijkstra runs, n runs in
/// the worst case (every node of the same eccentricity, as on a uniform
/// cycle), so O(n * m log n). Requires g connected.
Weight weighted_diameter(const Graph& g);

/// Weighted radius from v: Rad(v, G) = max_u dist(v, u).
Weight weighted_radius(const Graph& g, NodeId v);

/// The clock-synchronization parameter d = max_{(u,v) in E} dist(u, v):
/// the largest weighted distance between *neighbors*. Requires g connected.
Weight max_neighbor_distance(const Graph& g);

/// Computes every parameter. Requires g connected.
NetworkMeasures measure(const Graph& g);

}  // namespace csca
