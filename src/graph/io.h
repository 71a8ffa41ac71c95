// Plain-text graph exchange: a weighted edge-list format for getting
// networks in and out of the library, and Graphviz DOT export for
// looking at them (trees and other edge subsets can be highlighted).
//
// Edge-list format ("csca v1"):
//   line 1:  n m
//   m lines: u v w          (0-based endpoints, weight >= 1)
// Comment lines start with '#' and are skipped anywhere.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.h"

namespace csca {

/// Writes g in the edge-list format.
void write_edge_list(std::ostream& out, const Graph& g);

/// Parses the edge-list format; throws PreconditionError on malformed
/// input (wrong or oversized counts, bad endpoints, weight < 1,
/// duplicate edges).
Graph read_edge_list(std::istream& in);

struct DotOptions {
  /// Edges to render bold/colored (e.g. a spanning tree); empty = none.
  std::vector<EdgeId> highlight;
  /// Optional per-node extra label (e.g. distances); empty = ids only.
  std::vector<std::string> node_labels;
  std::string graph_name = "csca";
};

/// Renders g as an undirected Graphviz graph with edge weights as labels.
std::string to_dot(const Graph& g, const DotOptions& options = {});

}  // namespace csca
