#include "sim/engine.h"

#include <algorithm>
#include <utility>

namespace csca {

ProcessHost::ProcessHost(const Graph& g, ProcessStore store)
    : graph_(&g),
      processes_(std::move(store)),
      finish_time_(static_cast<std::size_t>(g.node_count()), -1.0) {
  require(processes_.size() == g.node_count(),
          "process store size must match the node count");
}

bool ProcessHost::all_finished() const {
  return std::all_of(finish_time_.begin(), finish_time_.end(),
                     [](double t) { return t >= 0; });
}

double ProcessHost::last_finish_time() const {
  require_lit(all_finished(), "not all nodes have finished");
  return *std::max_element(finish_time_.begin(), finish_time_.end());
}

std::int64_t ProcessHost::edge_message_count(EdgeId e) const {
  check_edge(e);
  std::int64_t sum = 0;
  for (const auto& counts : edge_messages_) {
    if (!counts.empty()) sum += counts[static_cast<std::size_t>(e)];
  }
  return sum;
}

std::int64_t ProcessHost::edge_message_count(EdgeId e, MsgClass cls) const {
  check_edge(e);
  const auto& counts = edge_messages_[class_index(cls)];
  return counts.empty() ? 0 : counts[static_cast<std::size_t>(e)];
}

std::int64_t ProcessHost::max_edge_message_count() const {
  std::int64_t best = 0;
  for (EdgeId e = 0; e < graph_->edge_count(); ++e) {
    best = std::max(best, edge_message_count(e));
  }
  return best;
}

std::int64_t ProcessHost::max_edge_message_count(MsgClass cls) const {
  const auto& counts = edge_messages_[class_index(cls)];
  if (counts.empty()) return 0;
  return *std::max_element(counts.begin(), counts.end());
}

void ProcessHost::fold_channel_counts(ClassCounts& tallies) {
  for (std::size_t c = 0; c < tallies.size(); ++c) {
    std::vector<std::int64_t> counts = std::exchange(tallies[c], {});
    // A class no channel billed keeps no per-edge array, exactly as on
    // the sequential engine.
    if (std::all_of(counts.begin(), counts.end(),
                    [](std::int64_t n) { return n == 0; })) {
      continue;
    }
    // In place, so the fold allocates nothing: slot e is written only
    // after slots 2e and 2e + 1 are read.
    const std::size_t edges = counts.size() / 2;
    for (std::size_t e = 0; e < edges; ++e) {
      counts[e] = counts[2 * e] + counts[2 * e + 1];
    }
    counts.resize(edges);
    edge_messages_[c] = std::move(counts);
  }
}

std::size_t ProcessHost::ledger_bytes() const {
  std::size_t bytes = finish_time_.capacity() * sizeof(double);
  for (const auto& counts : edge_messages_) {
    bytes += counts.capacity() * sizeof(std::int64_t);
  }
  return bytes;
}

}  // namespace csca
