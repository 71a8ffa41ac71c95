#include "graph/families.h"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace csca {

Graph heavy_chords_graph(int n, Weight heavy) {
  require(n >= 6, "heavy_chords_graph requires n >= 6");
  require(heavy >= 2, "heavy_chords_graph requires heavy >= 2");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) + 2);
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 2});
  edges.push_back({0, n - 1, heavy});
  edges.push_back({1, n / 2, heavy});
  edges.push_back({2, (3 * n) / 4, heavy / 2});
  return Graph(n, std::move(edges));
}

Graph normalized_chords_graph(int n, std::uint64_t seed) {
  require(n >= 6, "normalized_chords_graph requires n >= 6");
  Rng rng(seed);
  const Graph dense = connected_gnp(n, 0.25, WeightSpec::constant(1), rng);
  const Edge chords[] = {
      {0, n - 1, 256}, {1, n / 2, 128}, {2, (3 * n) / 4, 64}};
  const auto is_chord = [&chords](const Edge& e) {
    return std::any_of(std::begin(chords), std::end(chords),
                       [&e](const Edge& c) {
                         return std::minmax(c.u, c.v) ==
                                std::minmax(e.u, e.v);
                       });
  };
  std::vector<Edge> edges(std::begin(chords), std::end(chords));
  edges.reserve(edges.size() + dense.edges().size());
  for (const Edge& e : dense.edges()) {
    if (!is_chord(e)) edges.push_back(e);
  }
  return Graph(n, std::move(edges));
}

Graph make_family(const std::string& family, int n, std::uint64_t seed) {
  Rng rng(seed);
  if (family == "gnp") {
    return connected_gnp(n, 0.15, WeightSpec::uniform(1, 32), rng);
  }
  if (family == "gnp_pow2") {
    return connected_gnp(n, 0.15, WeightSpec::power_of_two(0, 5), rng);
  }
  if (family == "gnp_dense") {
    return connected_gnp(n, 0.4, WeightSpec::uniform(1, 12), rng);
  }
  if (family == "geometric") {
    return random_geometric(n, 0.3, 64, rng);
  }
  if (family == "geometric_small") {
    return random_geometric(n, 0.5, 8, rng);
  }
  if (family == "grid") {
    const int side = std::max(2, static_cast<int>(std::sqrt(n)));
    return grid_graph(side, side, WeightSpec::uniform(1, 16), rng);
  }
  if (family == "grid_pow2") {
    const int side = std::max(2, static_cast<int>(std::sqrt(n)));
    return grid_graph(side, side, WeightSpec::power_of_two(0, 4), rng);
  }
  if (family == "path") {
    return path_graph(n, WeightSpec::uniform(1, 8), rng);
  }
  if (family == "cycle") {
    return cycle_graph(n, WeightSpec::constant(2), rng);
  }
  if (family == "lower_bound") {
    return lower_bound_family(n, 8);
  }
  if (family == "lower_bound_x2") {
    return lower_bound_family(n, 2);
  }
  if (family == "lower_bound_split") {
    // The Figure 8 variant with the middle bypass edge split; n >= 8 so
    // the replaced edge (n/4, n-1-n/4) exists and is non-degenerate.
    return lower_bound_family_split(n, 8, n / 4);
  }
  if (family == "spt_heavy") {
    return spt_heavy_family(n);
  }
  if (family == "mst_deep") {
    return mst_deep_family(n);
  }
  if (family == "heavy_chords") {
    return heavy_chords_graph(n, 512);
  }
  throw PreconditionError("unknown graph family: " + family);
}

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names{
      "gnp",          "gnp_pow2",       "gnp_dense",
      "geometric",    "geometric_small", "grid",
      "grid_pow2",    "path",           "cycle",
      "lower_bound",  "lower_bound_x2", "lower_bound_split",
      "spt_heavy",    "mst_deep",       "heavy_chords"};
  return names;
}

std::vector<GraphFamily> builtin_families(bool smoke) {
  // Display names carry the instance size; seeds are per-entry streams
  // of one base so adding an entry never reshuffles the others.
  const auto seed = [](std::uint64_t i) {
    return derive_stream_seed(2026, i);
  };
  std::vector<GraphFamily> out;
  if (smoke) {
    out.push_back({"path6", make_family("path", 6, seed(0))});
    out.push_back({"grid3x3", make_family("grid_pow2", 9, seed(1))});
    out.push_back({"gnp8", make_family("gnp_dense", 8, seed(2))});
    return out;
  }
  out.push_back({"path16", make_family("path", 16, seed(0))});
  out.push_back({"grid4x4", make_family("grid_pow2", 16, seed(1))});
  out.push_back({"gnp14", make_family("gnp_dense", 14, seed(2))});
  out.push_back({"geo12", make_family("geometric_small", 12, seed(3))});
  out.push_back({"lower8", make_family("lower_bound_x2", 8, seed(4))});
  return out;
}

}  // namespace csca
