// Union-find with path compression and union by size.
//
// Used by Kruskal's algorithm, connectivity references, and the fragment
// bookkeeping in MST validation.
#pragma once

#include <numeric>
#include <vector>

#include "util/require.h"
#include "util/require_lit.h"

namespace csca {

class DisjointSets {
 public:
  explicit DisjointSets(int n)
      : parent_(static_cast<std::size_t>(n)),
        size_(static_cast<std::size_t>(n), 1) {
    require(n >= 0, "size must be non-negative");
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int find(int x) {
    check(x);
    while (parent_[static_cast<std::size_t>(x)] != x) {
      // Path halving.
      int& p = parent_[static_cast<std::size_t>(x)];
      p = parent_[static_cast<std::size_t>(p)];
      x = p;
    }
    return x;
  }

  /// Merges the sets of a and b; returns false if already joined.
  bool unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (size_[static_cast<std::size_t>(a)] <
        size_[static_cast<std::size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] +=
        size_[static_cast<std::size_t>(b)];
    return true;
  }

  bool same(int a, int b) { return find(a) == find(b); }

  int set_size(int x) { return size_[static_cast<std::size_t>(find(x))]; }

 private:
  void check(int x) const {
    require_lit(static_cast<std::size_t>(x) < parent_.size(),
                "element out of range");
  }

  std::vector<int> parent_;
  std::vector<int> size_;
};

}  // namespace csca
