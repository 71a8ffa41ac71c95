#include "graph/io.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace csca {

void write_edge_list(std::ostream& out, const Graph& g) {
  out << g.node_count() << ' ' << g.edge_count() << '\n';
  for (const Edge& e : g.edges()) {
    out << e.u << ' ' << e.v << ' ' << e.w << '\n';
  }
}

namespace {
// Next non-comment, non-blank line; false at EOF.
bool next_payload_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    return true;
  }
  return false;
}
}  // namespace

Graph read_edge_list(std::istream& in) {
  std::string line;
  require(next_payload_line(in, line), "edge list: missing header line");
  std::istringstream header(line);
  long long n = -1;
  long long m = -1;
  require(static_cast<bool>(header >> n >> m),
          "edge list: header must be 'n m'");
  require(n >= 0 && m >= 0, "edge list: negative counts");
  require(n <= std::numeric_limits<NodeId>::max(),
          "edge list: node count exceeds the NodeId range");
  require(m <= std::numeric_limits<EdgeId>::max(),
          "edge list: edge count exceeds the EdgeId range");
  // No reserve: m is only a promise until that many lines have parsed.
  std::vector<Edge> edges;
  for (long long i = 0; i < m; ++i) {
    require(next_payload_line(in, line),
            "edge list: fewer edges than the header promised");
    std::istringstream row(line);
    long long u = 0;
    long long v = 0;
    long long w = 0;
    require(static_cast<bool>(row >> u >> v >> w),
            "edge list: edge lines must be 'u v w'");
    require(u >= 0 && u < n && v >= 0 && v < n,
            "edge list: endpoint out of range");
    edges.push_back({static_cast<NodeId>(u), static_cast<NodeId>(v),
                     static_cast<Weight>(w)});
  }
  return Graph(static_cast<int>(n), std::move(edges));
}

std::string to_dot(const Graph& g, const DotOptions& options) {
  require(options.node_labels.empty() ||
              options.node_labels.size() ==
                  static_cast<std::size_t>(g.node_count()),
          "node_labels must be empty or one per node");
  std::vector<char> bold(static_cast<std::size_t>(g.edge_count()), 0);
  for (EdgeId e : options.highlight) {
    require(e >= 0 && e < g.edge_count(),
            "highlight edge id out of range");
    bold[static_cast<std::size_t>(e)] = 1;
  }
  std::ostringstream out;
  out << "graph " << options.graph_name << " {\n";
  out << "  node [shape=circle];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "  n" << v;
    if (!options.node_labels.empty()) {
      out << " [label=\"" << v << "\\n"
          << options.node_labels[static_cast<std::size_t>(v)] << "\"]";
    }
    out << ";\n";
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    out << "  n" << ed.u << " -- n" << ed.v << " [label=\"" << ed.w
        << '"';
    if (bold[static_cast<std::size_t>(e)]) {
      out << ", penwidth=3, color=\"#1f77b4\"";
    }
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace csca
