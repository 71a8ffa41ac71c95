#include "graph/graph.h"

#include <algorithm>
#include <mutex>
#include <string>

namespace csca {

namespace {

// Serializes first-read CSR builds (and construction-time index probes
// that could overlap one). A graph is built once, so all graphs can
// share one lock; readers of a built graph never take it.
std::mutex csr_build_mutex;

// splitmix64 finisher: full-avalanche mix of the packed endpoint pair.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// The first rule an edge of an n-node graph breaks, or null if none.
const char* edge_violation(const Edge& ed, int n) {
  if (ed.u < 0 || ed.u >= n || ed.v < 0 || ed.v >= n) {
    return "node id out of range";
  }
  if (ed.u == ed.v) return "self-loops are not allowed";
  if (ed.w < 1) return "edge weights must be >= 1";
  return nullptr;
}

}  // namespace

Graph::Graph(int n) : n_(n) {
  require(n >= 0, "node count must be non-negative");
  offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
}

Graph::Graph(int n, std::vector<Edge> edges)
    : n_(n), edges_(std::move(edges)) {
  require(n >= 0, "node count must be non-negative");
  require(edges_.size() <=
              static_cast<std::size_t>(std::numeric_limits<EdgeId>::max()),
          "edge count exceeds the EdgeId range");
  // One branch-free predicate over the whole list; the named checks run
  // only if it fails. A negative id wraps to a large unsigned one.
  const auto limit = static_cast<std::uint32_t>(n);
  bool valid = true;
  for (const Edge& ed : edges_) {
    valid &= (static_cast<std::uint32_t>(ed.u) < limit) &
             (static_cast<std::uint32_t>(ed.v) < limit) & (ed.u != ed.v) &
             (ed.w >= 1);
    total_weight_ += ed.w;
    max_weight_ = std::max(max_weight_, ed.w);
  }
  if (!valid) reject_invalid_edge();
  lay_out_csr();
  reject_parallel_edges();
}

void Graph::reject_invalid_edge() const {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (const char* what = edge_violation(edges_[i], n_)) {
      require(false, std::string(what) + " (edge " + std::to_string(i) + ")");
    }
  }
  ensure(false, "edge list failed validation but no edge is invalid");
}

void Graph::reject_parallel_edges() const {
  // A parallel pair lists the same neighbor twice in both endpoints'
  // slices. Short slices compare all pairs; longer ones (hubs) sort a
  // copy, so a star costs O(deg log deg) rather than O(deg^2).
  constexpr std::uint32_t kSortAbove = 16;
  const auto reject = [this](std::uint32_t b, std::uint32_t e, NodeId v,
                             NodeId w) {
    std::string ids;
    for (std::uint32_t i = b; i < e; ++i) {
      if (csr_nodes_[i] != w) continue;
      ids += ids.empty() ? "edges " : " and ";
      ids += std::to_string(csr_edges_[i]);
    }
    require(false, "parallel edges are not allowed (" + ids + " join " +
                       std::to_string(v) + " and " + std::to_string(w) +
                       ")");
  };
  std::vector<NodeId> sorted;
  for (std::size_t v = 0; v < static_cast<std::size_t>(n_); ++v) {
    const std::uint32_t b = offsets_[v];
    const std::uint32_t e = offsets_[v + 1];
    if (e - b <= kSortAbove) {
      for (std::uint32_t i = b; i < e; ++i) {
        for (std::uint32_t j = i + 1; j < e; ++j) {
          if (csr_nodes_[i] == csr_nodes_[j]) {
            reject(b, e, static_cast<NodeId>(v), csr_nodes_[i]);
          }
        }
      }
      continue;
    }
    sorted.assign(csr_nodes_.begin() + b, csr_nodes_.begin() + e);
    std::sort(sorted.begin(), sorted.end());
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    if (dup != sorted.end()) reject(b, e, static_cast<NodeId>(v), *dup);
  }
}

std::uint64_t Graph::pair_key(NodeId u, NodeId v) {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return (lo << 32) | hi;
}

void Graph::index_grow(std::size_t min_slots) {
  std::size_t slots = 16;
  while (slots < min_slots) slots *= 2;
  index_.assign(slots, kNoEdge);
  for (EdgeId id = 0; id < edge_count(); ++id) {
    const Edge& ed = edges_[static_cast<std::size_t>(id)];
    index_insert(pair_key(ed.u, ed.v), id);
  }
}

void Graph::index_insert(std::uint64_t key, EdgeId id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = mix(key) & mask;
  while (index_[slot] != kNoEdge) slot = (slot + 1) & mask;
  index_[slot] = id;
}

EdgeId Graph::index_find(std::uint64_t key) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = mix(key) & mask;
  while (index_[slot] != kNoEdge) {
    const Edge& ed = edges_[static_cast<std::size_t>(index_[slot])];
    if (pair_key(ed.u, ed.v) == key) return index_[slot];
    slot = (slot + 1) & mask;
  }
  return kNoEdge;
}

EdgeId Graph::add_edge(NodeId u, NodeId v, Weight w) {
  if (const char* what = edge_violation({u, v, w}, n_)) require(false, what);
  // A read since the last insert released the index with the CSR build.
  if (index_.empty()) index_grow((edges_.size() + 1) * 4);
  const std::uint64_t key = pair_key(u, v);
  require(index_find(key) == kNoEdge, "parallel edges are not allowed");
  const EdgeId id = edge_count();
  edges_.push_back(Edge{u, v, w});
  // Keep the probe chains short: grow at 1/2 load.
  if ((edges_.size() + 1) * 2 > index_.size()) {
    index_grow((edges_.size() + 1) * 4);
  } else {
    index_insert(key, id);
  }
  total_weight_ += w;
  max_weight_ = std::max(max_weight_, w);
  csr_dirty_.value.store(true, std::memory_order_relaxed);
  return id;
}

void Graph::set_weight(EdgeId e, Weight w) {
  require(e >= 0 && e < edge_count(), "edge id out of range");
  require(w >= 1, "edge weights must be >= 1");
  Edge& ed = edges_[static_cast<std::size_t>(e)];
  total_weight_ += w - ed.w;
  const bool shrank_max = ed.w == max_weight_ && w < max_weight_;
  ed.w = w;
  if (w > max_weight_) {
    max_weight_ = w;
  } else if (shrank_max) {
    max_weight_ = 0;
    for (const Edge& x : edges_) max_weight_ = std::max(max_weight_, x.w);
  }
}

EdgeId Graph::find_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  if (u == v) return kNoEdge;
  if (csr_dirty_.value.load(std::memory_order_acquire)) [[unlikely]] {
    // Under construction: probe the pair index, unless a concurrent
    // first read built the CSR (and released the index) meanwhile.
    const std::lock_guard<std::mutex> lock(csr_build_mutex);
    if (csr_dirty_.value.load(std::memory_order_relaxed)) {
      return index_find(pair_key(u, v));
    }
  }
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto b = offsets_[static_cast<std::size_t>(u)];
  const auto e = offsets_[static_cast<std::size_t>(u) + 1];
  for (auto i = b; i < e; ++i) {
    if (csr_nodes_[i] == v) return csr_edges_[i];
  }
  return kNoEdge;
}

void Graph::build_csr() const {
  const std::lock_guard<std::mutex> lock(csr_build_mutex);
  if (!csr_dirty_.value.load(std::memory_order_relaxed)) return;
  // The pair index only serves add_edge; free it before the CSR arrays
  // are allocated so the two never peak together.
  std::vector<EdgeId>().swap(index_);
  lay_out_csr();
  csr_dirty_.value.store(false, std::memory_order_release);
}

void Graph::lay_out_csr() const {
  // Counting sort by endpoint: one pass to place each edge id (and the
  // opposite endpoint) into both endpoints' slices. Edges are scanned in
  // id order, so each node's slice comes out in insertion order —
  // byte-identical to the historical per-node push_back layout.
  const std::size_t n = static_cast<std::size_t>(n_);
  offsets_.assign(n + 1, 0);
  for (const Edge& ed : edges_) {
    ++offsets_[static_cast<std::size_t>(ed.u) + 1];
    ++offsets_[static_cast<std::size_t>(ed.v) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  const std::size_t arcs = offsets_[n];
  csr_edges_.assign(arcs, kNoEdge);
  csr_nodes_.assign(arcs, kNoNode);
  // offsets_[v] doubles as v's fill cursor: filling v's slice advances
  // it to v's end, which is v + 1's start, so one shift restores it.
  for (EdgeId id = 0; id < edge_count(); ++id) {
    const Edge& ed = edges_[static_cast<std::size_t>(id)];
    const std::uint32_t su = offsets_[static_cast<std::size_t>(ed.u)]++;
    csr_edges_[su] = id;
    csr_nodes_[su] = ed.v;
    const std::uint32_t sv = offsets_[static_cast<std::size_t>(ed.v)]++;
    csr_edges_[sv] = id;
    csr_nodes_[sv] = ed.u;
  }
  for (std::size_t v = n; v > 0; --v) offsets_[v] = offsets_[v - 1];
  offsets_[0] = 0;
}

std::size_t Graph::memory_bytes() const {
  ensure_csr();
  return edges_.capacity() * sizeof(Edge) +
         index_.capacity() * sizeof(EdgeId) +
         offsets_.capacity() * sizeof(std::uint32_t) +
         csr_edges_.capacity() * sizeof(EdgeId) +
         csr_nodes_.capacity() * sizeof(NodeId);
}

Weight total_weight(const Graph& g, std::span<const EdgeId> edge_set) {
  Weight sum = 0;
  for (EdgeId e : edge_set) sum += g.weight(e);
  return sum;
}

}  // namespace csca
