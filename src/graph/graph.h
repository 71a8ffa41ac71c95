// Weighted undirected communication graph G = (V, E, w).
//
// This is the static network model of the paper (§1.2): the weight w(e) of
// an edge is both the cost of transmitting one message over e and the upper
// bound on its delay. Nodes are dense integers [0, n); edges are dense
// integers [0, m) referring into a single edge table, so protocols and
// algorithms can key per-edge state by EdgeId.
//
// Storage is CSR (compressed sparse row): adjacency lives in two flat
// arrays sliced by a shared 32-bit offset table, rather than one heap
// vector per node; a node's degree is the width of its slice. Each
// node's slice lists its edges in edge-id order, so reads are
// byte-identical to the historical per-node push_back layout.
//
// Graphs are born built: every generator, family and loader hands its
// whole edge list to Graph(n, edges), which validates it, lays out the
// CSR by one O(n + m) counting pass and rejects parallel edges by
// scanning each node's slice. Such a graph has no pair index and its
// first read takes no lock. Edge ids are list positions, so the result
// is identical to an add_edge replay of the same list.
//
// add_edge remains for incremental edits (tests, examples, hand-built
// networks). It appends to the edge table and marks the CSR dirty; the
// first adjacency read after it rebuilds the arrays. Its duplicate
// check uses an open-addressing hash index over endpoint pairs (O(1)
// expected), a construction-only structure that lives while the CSR is
// dirty and that the build releases. The first read of a dirty graph
// is safe under concurrent readers: the build runs under a lock, and a
// built graph's readers take no lock. find_edge on a built graph scans
// the lower-degree endpoint's slice.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/require.h"

namespace csca {

using NodeId = int;
using EdgeId = int;
using Weight = std::int64_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;

/// One undirected weighted edge. Endpoints are stored in insertion order;
/// use Graph::other() to walk from either side.
struct Edge {
  NodeId u = kNoNode;
  NodeId v = kNoNode;
  Weight w = 0;
};

/// One incident arc as seen from a fixed node v: the edge id and the
/// endpoint that is not v. What a hot traversal loop needs per hop,
/// without an edge-table load or an endpoint comparison.
struct Arc {
  EdgeId edge;
  NodeId node;
};

/// Zero-copy view over a node's incident arcs, in edge-insertion order.
/// Backed by two parallel CSR slices; iteration touches only those two
/// contiguous arrays. Invalidated, like any span, by graph mutation.
class NeighborView {
 public:
  class iterator {
   public:
    Arc operator*() const { return Arc{*e_, *n_}; }
    iterator& operator++() {
      ++e_;
      ++n_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return e_ != o.e_; }
    bool operator==(const iterator& o) const { return e_ == o.e_; }

   private:
    friend class NeighborView;
    iterator(const EdgeId* e, const NodeId* n) : e_(e), n_(n) {}
    const EdgeId* e_;
    const NodeId* n_;
  };

  NeighborView(const EdgeId* edges, const NodeId* nodes, std::size_t size)
      : edges_(edges), nodes_(nodes), size_(size) {}

  iterator begin() const { return iterator(edges_, nodes_); }
  iterator end() const { return iterator(edges_ + size_, nodes_ + size_); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Arc operator[](std::size_t i) const { return Arc{edges_[i], nodes_[i]}; }

 private:
  const EdgeId* edges_;
  const NodeId* nodes_;
  std::size_t size_;
};

/// Weighted undirected multigraph-free graph. Immutable node count.
/// Self-loops and parallel edges are rejected, matching the standard
/// network model.
class Graph {
 public:
  /// Creates a graph with n isolated nodes. Requires n >= 0.
  explicit Graph(int n);

  /// Creates the graph on n nodes whose edge i is edges[i], built: the
  /// CSR is laid out and no pair index is kept. Requires n >= 0, at
  /// most INT_MAX edges, and every edge valid for add_edge (endpoints
  /// in range and distinct, w >= 1, no pair listed twice in either
  /// orientation); throws PreconditionError naming the first violation.
  Graph(int n, std::vector<Edge> edges);

  /// Adds edge {u, v} with weight w >= 1 and returns its id.
  /// Requires valid distinct endpoints and that the edge not already exist.
  EdgeId add_edge(NodeId u, NodeId v, Weight w);

  int node_count() const { return n_; }
  int edge_count() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(EdgeId e) const {
    require(e >= 0 && e < edge_count(), "edge id out of range");
    return edges_[static_cast<std::size_t>(e)];
  }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Ids of edges incident to v, in insertion order.
  std::span<const EdgeId> incident(NodeId v) const {
    check_node(v);
    ensure_csr();
    const std::size_t b = offsets_[static_cast<std::size_t>(v)];
    const std::size_t e = offsets_[static_cast<std::size_t>(v) + 1];
    return {csr_edges_.data() + b, e - b};
  }

  /// Incident arcs of v — (edge id, other endpoint) pairs — in insertion
  /// order, straight out of the CSR arrays. The hot-loop API: one hop
  /// costs two contiguous loads and no edge-table lookup, vs.
  /// incident() + other() which re-reads the 16-byte Edge record and
  /// branches on which endpoint is v.
  NeighborView neighbors(NodeId v) const {
    check_node(v);
    ensure_csr();
    const std::size_t b = offsets_[static_cast<std::size_t>(v)];
    const std::size_t e = offsets_[static_cast<std::size_t>(v) + 1];
    return NeighborView(csr_edges_.data() + b, csr_nodes_.data() + b, e - b);
  }

  int degree(NodeId v) const {
    check_node(v);
    ensure_csr();
    const auto i = static_cast<std::size_t>(v);
    return static_cast<int>(offsets_[i + 1] - offsets_[i]);
  }

  /// The endpoint of e that is not v. Requires v to be an endpoint of e.
  NodeId other(EdgeId e, NodeId v) const {
    const Edge& ed = edge(e);
    require(ed.u == v || ed.v == v, "node is not an endpoint of edge");
    return ed.u == v ? ed.v : ed.u;
  }

  Weight weight(EdgeId e) const { return edge(e).w; }

  /// Re-assigns w(e) (churn epochs between run slices; docs/faults.md).
  /// Requires w >= 1. Maintains total_weight_/max_weight_ and leaves the
  /// CSR arrays alone — they store ids, not weights — so no rebuild.
  void set_weight(EdgeId e, Weight w);

  /// Id of the edge {u, v}, or kNoEdge if absent. On a built graph,
  /// O(min(deg u, deg v)) by a scan of the smaller CSR slice; while the
  /// graph is under construction, O(1) expected via the pair index.
  EdgeId find_edge(NodeId u, NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const {
    return find_edge(u, v) != kNoEdge;
  }

  /// Sum of all edge weights: the paper's script-E.
  Weight total_weight() const { return total_weight_; }

  /// Maximum edge weight W. Zero on an edgeless graph.
  Weight max_weight() const { return max_weight_; }

  /// Heap bytes held by the topology once built: edge table + CSR
  /// arrays + offset table (the pair index is released by the build).
  /// The graph term of the scale table's bytes/node accounting
  /// (docs/scale.md).
  std::size_t memory_bytes() const;

  void check_node(NodeId v) const {
    require(v >= 0 && v < node_count(), "node id out of range");
  }

 private:
  // Double-checked lazy build: the clean path is one acquire load.
  void ensure_csr() const {
    if (csr_dirty_.value.load(std::memory_order_acquire)) [[unlikely]] {
      build_csr();
    }
  }
  void build_csr() const;
  void lay_out_csr() const;
  void reject_invalid_edge() const;
  void reject_parallel_edges() const;
  EdgeId index_find(std::uint64_t key) const;
  void index_insert(std::uint64_t key, EdgeId id);
  void index_grow(std::size_t min_slots);
  static std::uint64_t pair_key(NodeId u, NodeId v);

  // std::atomic is neither copyable nor movable, but graphs are both.
  // A copy takes no lock, so it must not overlap another thread's first
  // read of the source.
  struct DirtyFlag {
    std::atomic<bool> value;
    explicit DirtyFlag(bool v) : value(v) {}
    DirtyFlag(const DirtyFlag& o)
        : value(o.value.load(std::memory_order_relaxed)) {}
    DirtyFlag& operator=(const DirtyFlag& o) {
      value.store(o.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
  };

  int n_ = 0;
  std::vector<Edge> edges_;
  Weight total_weight_ = 0;
  Weight max_weight_ = 0;

  // Open-addressing index: slot -> edge id (kNoEdge = empty). Keys are
  // recomputed from the edge table on probe, so the index itself is one
  // flat int array. Linear probing, load factor <= 1/2, power-of-two
  // sized; insertion order never affects reads, so it is deterministic.
  // Construction-only: non-empty whenever the CSR is dirty, released by
  // build_csr, rebuilt by the next add_edge.
  mutable std::vector<EdgeId> index_;

  // CSR adjacency, laid out by the edge-list constructor or lazily
  // rebuilt after add_edge. All mutation happens during single-threaded
  // graph construction; the first read after it builds the arrays under
  // a lock (build_csr), so concurrent first readers are safe and later
  // readers see a clean CSR through one acquire load. Offsets are
  // 32-bit: EdgeId is int, so 2m < 2^32.
  static_assert(2ULL * std::numeric_limits<EdgeId>::max() <
                (1ULL << 32));
  mutable DirtyFlag csr_dirty_{false};  // the empty CSR is valid
  mutable std::vector<std::uint32_t> offsets_;  // n + 1 entries
  mutable std::vector<EdgeId> csr_edges_;       // 2m entries
  mutable std::vector<NodeId> csr_nodes_;       // 2m entries, parallel
};

/// Total weight of a set of edges of g.
Weight total_weight(const Graph& g, std::span<const EdgeId> edge_set);

}  // namespace csca
