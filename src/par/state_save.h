// Per-process state saving for the optimistic engine.
//
// Time Warp (par/timewarp_engine.h) snapshots a process before every
// speculative delivery so rollback can restore it byte-exactly. Two
// storage paths hide behind one handle type:
//
//   * slab copies — for PooledStore arenas with a copyable concrete
//     type, the store's snapshot slab copy-assigns elements in and out
//     of a typed deque (one arena, recycled slots: no per-snapshot heap
//     object, so the SCALE-1 allocation model of docs/scale.md holds);
//   * clone virtuals — the from_factory fallback calls
//     Process::save_state / restore_state, which concrete protocols
//     implement as a copy-construct / copy-assign pair. Heap churn is
//     bounded by the slot free list: a dropped snapshot's slot (and its
//     clone allocation pattern) is recycled.
//
// Fossil collection is `drop`: once GVT passes an event, its snapshot
// can never be restored again and its slot returns to the free list.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.h"
#include "sim/process_store.h"
#include "util/require_lit.h"

namespace csca {

/// One consumer's snapshot store. Each optimistic-engine shard owns one
/// instance covering the nodes it hosts, so concurrent save/restore of
/// disjoint node sets is lock-free by construction.
class SavedStates {
 public:
  using Store = PooledStore<Process>;

  explicit SavedStates(const Store* store) : store_(store) {
    require(store != nullptr, "saved states need a process store");
    if (store_->snapshots_supported()) {
      slab_ = store_->make_snapshot_slab();
    }
  }

  /// Snapshots node v's process; returns a handle for restore/drop.
  std::uint32_t save(NodeId v) {
    if (slab_ != nullptr) return store_->save_snapshot(slab_.get(), v);
    std::unique_ptr<Process> copy = store_->at(v).save_state();
    require_lit(copy != nullptr,
                "process does not implement save_state; the optimistic "
                "engine cannot host it (add the save/restore override pair)");
    if (!free_.empty()) {
      const std::uint32_t h = free_.back();
      free_.pop_back();
      clones_[h] = std::move(copy);
      return h;
    }
    clones_.push_back(std::move(copy));
    return static_cast<std::uint32_t>(clones_.size() - 1);
  }

  /// Restores node v's process to the snapshot in `handle`. Restore
  /// does not consume the handle; rollback restores newest-first, drops
  /// each handle after restoring it, and re-saves on re-delivery.
  void restore(NodeId v, std::uint32_t handle) {
    if (slab_ != nullptr) {
      store_->restore_snapshot(slab_.get(), v, handle);
      return;
    }
    store_->at(v).restore_state(*clones_[handle]);
  }

  /// Fossil-collects a snapshot: the slot is recycled.
  void drop(std::uint32_t handle) {
    if (slab_ != nullptr) {
      store_->drop_snapshot(slab_.get(), handle);
    } else {
      clones_[handle].reset();
      free_.push_back(handle);
    }
    ++dropped_;
  }

  /// Snapshots released so far (rollback consumption plus fossil
  /// collection) — observable for the GVT/fossil property tests.
  std::int64_t dropped() const { return dropped_; }

 private:
  const Store* store_;
  std::shared_ptr<void> slab_;  // slab path (pooled copyable stores)
  // Clone-path storage (from_factory stores).
  std::vector<std::unique_ptr<Process>> clones_;
  std::vector<std::uint32_t> free_;
  std::int64_t dropped_ = 0;
};

}  // namespace csca
