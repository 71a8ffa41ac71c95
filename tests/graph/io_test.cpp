#include "graph/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"
#include "graph/mst.h"

namespace csca {
namespace {

TEST(GraphIo, RoundTripPreservesEverything) {
  Rng rng(1);
  Graph g = connected_gnp(20, 0.25, WeightSpec::uniform(1, 40), rng);
  std::stringstream buf;
  write_edge_list(buf, g);
  const Graph back = read_edge_list(buf);
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    EXPECT_EQ(back.edge(e).u, g.edge(e).u);
    EXPECT_EQ(back.edge(e).v, g.edge(e).v);
    EXPECT_EQ(back.edge(e).w, g.edge(e).w);
  }
}

TEST(GraphIo, CommentsAndBlankLinesSkipped) {
  std::istringstream in(
      "# a network\n\n3 2\n# the edges\n0 1 5\n\n1 2 7\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.node_count(), 3);
  EXPECT_EQ(g.weight(g.find_edge(1, 2)), 7);
}

TEST(GraphIo, MalformedInputsRejected) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_edge_list(in);
  };
  EXPECT_THROW(parse(""), PreconditionError);               // no header
  EXPECT_THROW(parse("3\n"), PreconditionError);            // header short
  EXPECT_THROW(parse("3 2\n0 1 5\n"), PreconditionError);   // missing edge
  EXPECT_THROW(parse("3 1\n0 3 5\n"), PreconditionError);   // bad endpoint
  EXPECT_THROW(parse("3 1\n0 1 0\n"), PreconditionError);   // weight < 1
  EXPECT_THROW(parse("3 1\n0 0 2\n"), PreconditionError);   // self loop
  EXPECT_THROW(parse("3 2\n0 1 2\n1 0 2\n"), PreconditionError);  // dup
  EXPECT_THROW(parse("-1 0\n"), PreconditionError);         // negative n
  EXPECT_THROW(parse("3 1\n0 1 x\n"), PreconditionError);   // non-numeric
  // Counts past the id range: n would wrap to 3, m is never reserved.
  EXPECT_THROW(parse("4294967299 0\n"), PreconditionError);
  EXPECT_THROW(parse("3 4294967299\n0 1 1\n"), PreconditionError);
  try {
    parse("3 2000000000\n0 1 1\n");
    ADD_FAILURE() << "accepted a header promising 2e9 edges";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "fewer edges than the header promised"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphIo, EmptyGraphRoundTrips) {
  std::stringstream buf;
  write_edge_list(buf, Graph(0));
  const Graph g = read_edge_list(buf);
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(GraphIo, DotContainsNodesEdgesAndHighlights) {
  Graph g(3);
  const EdgeId a = g.add_edge(0, 1, 4);
  g.add_edge(1, 2, 9);
  DotOptions opts;
  opts.highlight = {a};
  opts.node_labels = {"root", "mid", "leaf"};
  const std::string dot = to_dot(g, opts);
  EXPECT_NE(dot.find("graph csca {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1 [label=\"4\", penwidth=3"),
            std::string::npos);
  EXPECT_NE(dot.find("n1 -- n2 [label=\"9\"]"), std::string::npos);
  EXPECT_NE(dot.find("label=\"0\\nroot\""), std::string::npos);
}

TEST(GraphIo, DotValidatesOptions) {
  Graph g(2);
  g.add_edge(0, 1, 1);
  DotOptions bad_label;
  bad_label.node_labels = {"only one"};
  EXPECT_THROW(to_dot(g, bad_label), PreconditionError);
  DotOptions bad_edge;
  bad_edge.highlight = {5};
  EXPECT_THROW(to_dot(g, bad_edge), PreconditionError);
}

TEST(GraphIo, DotHighlightOfMstIsWellFormed) {
  Rng rng(2);
  Graph g = connected_gnp(8, 0.5, WeightSpec::uniform(1, 9), rng);
  DotOptions opts;
  opts.highlight = kruskal_mst(g);
  const std::string dot = to_dot(g, opts);
  // n-1 highlighted edges.
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = dot.find("penwidth=3", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 7u);
}

}  // namespace
}  // namespace csca
