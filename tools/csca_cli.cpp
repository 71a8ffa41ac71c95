// Command-line front end: run the paper's algorithms on a network read
// from an edge-list file (see graph/io.h for the format) and print the
// cost-sensitive ledger.
//
// Usage:
//   csca_cli measures  <graph>            weighted parameters E/V/D/d/W
//   csca_cli mst       <graph>            GHS; prints MST edges + leader
//   csca_cli spt       <graph> <src>      SPT_synch distances from src
//   csca_cli slt       <graph> <root> <q> shallow-light tree + DOT
//   csca_cli flood     <graph> <root>     broadcast; tree + ledger
//   csca_cli count     <graph>            leader election + counting
//   csca_cli clock     <graph> <pulses>   gamma* pulse delay
//
// Use "-" as <graph> to read from stdin. Numeric arguments must be
// whole numbers ("3abc" is rejected by name, not read as 3).
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "conn/flood.h"
#include "core/slt.h"
#include "graph/io.h"
#include "graph/measures.h"
#include "mst/applications.h"
#include "partition/tree_edge_cover.h"
#include "spt/spt_synch.h"
#include "sync/clock_sync.h"

using namespace csca;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: csca_cli "
               "{measures|mst|spt|slt|flood|count|clock} <graph> "
               "[args...]\n       (see the header of tools/csca_cli.cpp "
               "for details; <graph> = edge-list file or '-')\n");
  return 2;
}

// Names the rejected argument and its value, then prints the usage text.
int reject(const char* what, const char* value) {
  std::fprintf(stderr, "csca_cli: bad value for %s: \"%s\"\n", what, value);
  return usage();
}

// Parses the whole of `text` as a T (an integer or a double); a value
// with trailing characters, an empty one or an out-of-range one fails.
template <typename T>
std::optional<T> parse_whole(const char* text) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

Graph load(const std::string& path) {
  if (path == "-") return read_edge_list(std::cin);
  std::ifstream in(path);
  require(static_cast<bool>(in), "cannot open graph file: " + path);
  return read_edge_list(in);
}

void print_ledger(const RunStats& stats) {
  std::printf("messages: %lld   comm cost: %lld   time: %.0f\n",
              static_cast<long long>(stats.total_messages()),
              static_cast<long long>(stats.total_cost()),
              stats.completion_time);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  try {
    const Graph g = load(argv[2]);

    if (cmd == "measures") {
      const auto m = measure(g);
      std::printf("n=%d m=%d\nscript-E=%lld\nscript-V=%lld\n"
                  "script-D=%lld\nd=%lld\nW=%lld\n",
                  m.n, m.m, static_cast<long long>(m.comm_E),
                  static_cast<long long>(m.comm_V),
                  static_cast<long long>(m.comm_D),
                  static_cast<long long>(m.d),
                  static_cast<long long>(m.W));
      return 0;
    }
    if (cmd == "mst") {
      const auto run = run_ghs(g, GhsMode::kSerialScan,
                               make_exact_delay());
      std::printf("MST edges:");
      for (EdgeId e : run.mst_edges) {
        std::printf(" (%d-%d)", g.edge(e).u, g.edge(e).v);
      }
      std::printf("\nweight: %lld   leader: %d\n",
                  static_cast<long long>(total_weight(g, run.mst_edges)),
                  run.leader);
      print_ledger(run.stats);
      return 0;
    }
    if (cmd == "spt" && argc >= 4) {
      const auto parsed = parse_whole<NodeId>(argv[3]);
      if (!parsed) return reject("<src>", argv[3]);
      const NodeId src = *parsed;
      const auto run = run_spt_synch(g, src, 2, make_exact_delay());
      for (NodeId v = 0; v < g.node_count(); ++v) {
        std::printf("dist(%d, %d) = %lld\n", src, v,
                    static_cast<long long>(
                        run.dist[static_cast<std::size_t>(v)]));
      }
      print_ledger(run.async_run.stats);
      return 0;
    }
    if (cmd == "slt" && argc >= 5) {
      const auto parsed_root = parse_whole<NodeId>(argv[3]);
      if (!parsed_root) return reject("<root>", argv[3]);
      const auto parsed_q = parse_whole<double>(argv[4]);
      if (!parsed_q) return reject("<q>", argv[4]);
      const NodeId root = *parsed_root;
      const double q = *parsed_q;
      const auto slt = build_slt(g, root, q);
      const auto m = measure(g);
      std::printf("# SLT(q=%g): weight=%lld (V=%lld)  depth=%lld "
                  "(D=%lld)\n",
                  q, static_cast<long long>(slt.weight(g)),
                  static_cast<long long>(m.comm_V),
                  static_cast<long long>(slt.depth(g)),
                  static_cast<long long>(m.comm_D));
      DotOptions opts;
      opts.highlight = slt.tree.edge_set();
      std::fputs(to_dot(g, opts).c_str(), stdout);
      return 0;
    }
    if (cmd == "flood" && argc >= 4) {
      const auto parsed = parse_whole<NodeId>(argv[3]);
      if (!parsed) return reject("<root>", argv[3]);
      const NodeId root = *parsed;
      const auto run = run_flood(g, root, make_exact_delay());
      std::printf("broadcast tree depth: %lld\n",
                  static_cast<long long>(run.tree.height(g)));
      print_ledger(run.stats);
      return 0;
    }
    if (cmd == "count") {
      const auto run =
          run_counting(g, [] { return make_exact_delay(); });
      std::printf("leader: %d   count: %lld\n", run.leader,
                  static_cast<long long>(run.count));
      print_ledger(run.ghs_stats);
      return 0;
    }
    if (cmd == "clock" && argc >= 4) {
      const auto parsed = parse_whole<int>(argv[3]);
      if (!parsed) return reject("<pulses>", argv[3]);
      const int pulses = *parsed;
      const auto cover = build_tree_edge_cover(g);
      const auto run =
          run_clock_gamma(g, cover, pulses, make_exact_delay());
      const auto m = measure(g);
      std::printf("gamma* over %d pulses: max gap %.0f  mean gap %.1f  "
                  "(d=%lld, W=%lld)\n",
                  pulses, run.max_gap, run.mean_gap,
                  static_cast<long long>(m.d),
                  static_cast<long long>(m.W));
      print_ledger(run.stats);
      return 0;
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
