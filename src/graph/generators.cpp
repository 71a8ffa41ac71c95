#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

namespace csca {

WeightSpec WeightSpec::constant(Weight w) {
  require(w >= 1, "constant weight must be >= 1");
  return WeightSpec(Kind::kConstant, w, w);
}

WeightSpec WeightSpec::uniform(Weight lo, Weight hi) {
  require(lo >= 1 && lo <= hi, "uniform weight range invalid");
  return WeightSpec(Kind::kUniform, lo, hi);
}

WeightSpec WeightSpec::power_of_two(int lo_exp, int hi_exp) {
  require(lo_exp >= 0 && lo_exp <= hi_exp && hi_exp < 62,
          "power_of_two exponent range invalid");
  return WeightSpec(Kind::kPowerOfTwo, lo_exp, hi_exp);
}

Weight WeightSpec::sample(Rng& rng) const {
  switch (kind_) {
    case Kind::kConstant:
      return lo_;
    case Kind::kUniform:
      return rng.uniform_int(lo_, hi_);
    case Kind::kPowerOfTwo:
      return Weight{1} << rng.uniform_int(lo_, hi_);
  }
  ensure(false, "unreachable weight kind");
  return 1;
}

namespace {

// The edge table of a path 0 - 1 - ... - n-1, with room for `extra`
// more edges.
std::vector<Edge> path_edges(int n, WeightSpec weights, Rng& rng,
                             std::size_t extra) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1 + extra);
  for (NodeId v = 0; v + 1 < n; ++v) {
    edges.push_back({v, v + 1, weights.sample(rng)});
  }
  return edges;
}

constexpr std::int64_t kMaxId = std::numeric_limits<int>::max();

}  // namespace

Graph path_graph(int n, WeightSpec weights, Rng& rng) {
  require(n >= 1, "path_graph requires n >= 1");
  return Graph(n, path_edges(n, weights, rng, 0));
}

Graph cycle_graph(int n, WeightSpec weights, Rng& rng) {
  require(n >= 3, "cycle_graph requires n >= 3");
  std::vector<Edge> edges = path_edges(n, weights, rng, 1);
  edges.push_back({n - 1, 0, weights.sample(rng)});
  return Graph(n, std::move(edges));
}

Graph grid_graph(int rows, int cols, WeightSpec weights, Rng& rng) {
  require(rows >= 1 && cols >= 1, "grid dimensions must be >= 1");
  const std::int64_t n = std::int64_t{rows} * cols;
  require(n <= kMaxId, "grid_graph: rows * cols exceeds the NodeId range");
  const std::int64_t m = 2 * n - rows - cols;
  require(m <= kMaxId, "grid_graph: edge count exceeds the EdgeId range");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  const auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        edges.push_back({id(r, c), id(r, c + 1), weights.sample(rng)});
      }
      if (r + 1 < rows) {
        edges.push_back({id(r, c), id(r + 1, c), weights.sample(rng)});
      }
    }
  }
  return Graph(static_cast<int>(n), std::move(edges));
}

Graph complete_graph(int n, WeightSpec weights, Rng& rng) {
  require(n >= 1, "complete_graph requires n >= 1");
  const std::int64_t m = std::int64_t{n} * (n - 1) / 2;
  require(m <= kMaxId,
          "complete_graph: n(n-1)/2 edges exceed the EdgeId range");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      edges.push_back({u, v, weights.sample(rng)});
    }
  }
  return Graph(n, std::move(edges));
}

Graph random_tree(int n, WeightSpec weights, Rng& rng) {
  require(n >= 1, "random_tree requires n >= 1");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 1; v < n; ++v) {
    const NodeId parent =
        static_cast<NodeId>(rng.uniform_int(0, v - 1));
    edges.push_back({parent, v, weights.sample(rng)});
  }
  return Graph(n, std::move(edges));
}

Graph connected_gnp(int n, double p, WeightSpec weights, Rng& rng) {
  require(n >= 1, "connected_gnp requires n >= 1");
  require(p >= 0.0 && p <= 1.0, "probability out of range");
  // Random attachment tree over a shuffled labelling keeps the backbone
  // unbiased, then each remaining pair appears independently.
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng.engine());
  std::vector<Edge> edges;
  // The tree pairs as (lo << 32 | hi), sorted: the pair loop below
  // visits pairs in that same order, so one cursor answers "is this a
  // tree edge?" for every pair.
  std::vector<std::uint64_t> tree;
  tree.reserve(static_cast<std::size_t>(n) - 1);
  for (int i = 1; i < n; ++i) {
    const int j = static_cast<int>(rng.uniform_int(0, i - 1));
    const NodeId a = perm[static_cast<std::size_t>(i)];
    const NodeId b = perm[static_cast<std::size_t>(j)];
    edges.push_back({a, b, weights.sample(rng)});
    tree.push_back(static_cast<std::uint64_t>(std::min(a, b)) << 32 |
                   static_cast<std::uint64_t>(std::max(a, b)));
  }
  std::sort(tree.begin(), tree.end());
  auto next_tree = tree.begin();
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const std::uint64_t key = static_cast<std::uint64_t>(u) << 32 |
                                static_cast<std::uint64_t>(v);
      if (next_tree != tree.end() && *next_tree == key) {
        ++next_tree;
      } else if (rng.chance(p)) {
        edges.push_back({u, v, weights.sample(rng)});
      }
    }
  }
  return Graph(n, std::move(edges));
}

Graph random_geometric(int n, double radius, Weight scale, Rng& rng) {
  require(n >= 1, "random_geometric requires n >= 1");
  require(radius > 0.0, "radius must be positive");
  require(scale >= 1, "scale must be >= 1");
  std::vector<std::pair<double, double>> pts(static_cast<std::size_t>(n));
  for (auto& p : pts) {
    p = {rng.uniform_real(0.0, 1.0), rng.uniform_real(0.0, 1.0)};
  }
  const auto dist = [&](int a, int b) {
    const double dx = pts[static_cast<std::size_t>(a)].first -
                      pts[static_cast<std::size_t>(b)].first;
    const double dy = pts[static_cast<std::size_t>(a)].second -
                      pts[static_cast<std::size_t>(b)].second;
    return std::sqrt(dx * dx + dy * dy);
  };
  const auto w_of = [&](double d) {
    return std::max<Weight>(
        1, static_cast<Weight>(std::ceil(d * static_cast<double>(scale))));
  };
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double d = dist(u, v);
      if (d <= radius) edges.push_back({u, v, w_of(d)});
    }
  }
  // Connectivity backbone: a path through points sorted by x-coordinate,
  // which keeps backbone edges geometrically short. A pair the radius
  // pass above did not join gets a backbone edge (dist is symmetric).
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return pts[static_cast<std::size_t>(a)] <
           pts[static_cast<std::size_t>(b)];
  });
  for (int i = 0; i + 1 < n; ++i) {
    const NodeId a = order[static_cast<std::size_t>(i)];
    const NodeId b = order[static_cast<std::size_t>(i + 1)];
    const double d = dist(a, b);
    if (!(d <= radius)) edges.push_back({a, b, w_of(d)});
  }
  return Graph(n, std::move(edges));
}

Graph spt_heavy_family(int n) {
  require(n >= 3, "spt_heavy_family requires n >= 3");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(2) * n - 3);
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 2});
  for (NodeId v = 2; v < n; ++v) edges.push_back({0, v, 2 * v - 1});
  return Graph(n, std::move(edges));
}

Graph mst_deep_family(int n) {
  require(n >= 4, "mst_deep_family requires n >= 4");
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(2) * n - 3);
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v, 2});
  for (NodeId v = 1; v + 1 < n; ++v) edges.push_back({v, v + 1, 1});
  return Graph(n, std::move(edges));
}

namespace {
Weight pow4(Weight x) {
  require(x >= 2, "lower-bound family requires X >= 2");
  require(x <= 50000, "X too large: X^4 would overflow Weight");
  return x * x * x * x;
}
}  // namespace

Graph lower_bound_family(int n, Weight x) {
  require(n >= 4, "lower_bound_family requires n >= 4");
  const Weight heavy = pow4(x);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(3) * n / 2);
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, x});
  for (int j = 0; j < n / 2; ++j) {
    const int mirror = n - 1 - j;
    if (mirror > j + 1) edges.push_back({j, mirror, heavy});
  }
  return Graph(n, std::move(edges));
}

Graph lower_bound_family_split(int n, Weight x, int i) {
  require(n >= 4, "lower_bound_family_split requires n >= 4");
  const int mirror = n - 1 - i;
  require(i >= 0 && i < n / 2 && mirror > i + 1,
          "i must index an existing bypass edge");
  const Weight heavy = pow4(x);
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, x});
  for (int j = 0; j < n / 2; ++j) {
    const int m = n - 1 - j;
    if (m <= j + 1) continue;
    if (j == i) {
      edges.push_back({j, n, heavy});      // pendant replacing one endpoint
      edges.push_back({m, n + 1, heavy});  // pendant replacing the other
    } else {
      edges.push_back({j, m, heavy});
    }
  }
  return Graph(n + 2, std::move(edges));
}

}  // namespace csca
