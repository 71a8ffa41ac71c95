// Pooled per-node protocol state.
//
// Engines host one process per node. The historical representation — a
// vector of unique_ptr built from a factory — costs one heap allocation
// per node and scatters protocol state across the allocator's arenas,
// which is exactly the footprint shape the `scale` table's bytes/node
// accounting exists to kill (the ROADMAP's "where the bytes go" aim;
// same idiom as the pooled Message arena in sim/message.h and the
// EventHeap slot arena).
//
// A PooledStore interns all n processes of one concrete type into a
// single contiguous array and erases the type behind a function-pointer
// thunk, so engines address "process v" without knowing the concrete
// type and without a pointer chase per node. The factory path stays as a
// fallback (PooledStore::from_factory) for heterogeneous or
// move-averse process types; every engine constructor taking a
// ProcessFactory simply wraps it.
//
// State lifetime: the store owns the processes; engines take the store
// by value (it is a couple of pointers plus a shared_ptr) and the
// analysis layer keeps reading protocol state through
// ProcessHost::process_as after the run, exactly as before.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/require.h"
#include "util/require_lit.h"

namespace csca {

namespace detail {

/// Snapshot slab for PooledStore elements of concrete type T: one typed
/// deque with a slot free list (arena-style — no per-snapshot heap
/// object). Each consumer (e.g. one optimistic-engine shard) owns its
/// own slab, so concurrent snapshotting of disjoint node sets needs no
/// locks.
template <typename T>
struct SnapshotSlab {
  std::deque<T> slots;
  std::vector<std::uint32_t> free;
};

}  // namespace detail

/// Type-erased contiguous store of n objects derived from Base.
/// Base = Process for the asynchronous engines, SyncProcess for the
/// pulse engine.
template <typename Base>
class PooledStore {
 public:
  using Factory = std::function<std::unique_ptr<Base>(NodeId)>;

  PooledStore() = default;

  /// Interns n processes of concrete type T into one contiguous arena.
  /// make(v) returns the T for node v by value; T must be movable.
  template <typename T, typename MakeFn>
  static PooledStore pooled(int n, MakeFn make) {
    static_assert(std::is_base_of_v<Base, T>,
                  "pooled element type must derive from the store base");
    require(n >= 0, "store size must be non-negative");
    auto arena = std::make_shared<std::vector<T>>();
    arena->reserve(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) arena->emplace_back(make(v));
    PooledStore s;
    s.count_ = n;
    s.data_ = arena->data();
    s.at_ = [](void* data, std::size_t i) -> Base* {
      return static_cast<T*>(data) + i;
    };
    s.state_bytes_ = static_cast<std::size_t>(n) * sizeof(T);
    if constexpr (std::is_copy_constructible_v<T> &&
                  std::is_copy_assignable_v<T>) {
      // Snapshot thunks for the optimistic engine: saving copies the
      // element into a caller-owned slab of the same concrete type
      // (detail::SnapshotSlab — one deque, slots recycled through a
      // free list, so the SCALE-1 allocation model holds), restoring
      // copy-assigns it back. Copy-averse types simply get no thunks
      // and fall back to the Process::save_state virtuals.
      using Slab = detail::SnapshotSlab<T>;
      s.make_slab_ = []() -> std::shared_ptr<void> {
        return std::make_shared<Slab>();
      };
      s.save_ = [](void* snap, void* data, std::size_t i) -> std::uint32_t {
        auto& sl = *static_cast<Slab*>(snap);
        const T& src = *(static_cast<T*>(data) + i);
        if (!sl.free.empty()) {
          const std::uint32_t h = sl.free.back();
          sl.free.pop_back();
          sl.slots[h] = src;
          return h;
        }
        sl.slots.push_back(src);
        return static_cast<std::uint32_t>(sl.slots.size() - 1);
      };
      s.restore_ = [](void* snap, void* data, std::size_t i,
                      std::uint32_t h) {
        auto& sl = *static_cast<Slab*>(snap);
        *(static_cast<T*>(data) + i) = sl.slots[h];
      };
      s.drop_ = [](void* snap, std::uint32_t h) {
        static_cast<Slab*>(snap)->free.push_back(h);
      };
    }
    s.owner_ = std::move(arena);
    return s;
  }

  /// Fallback: one heap object per node via the historical factory.
  /// Keeps arbitrary (non-movable, heterogeneous) process types working;
  /// state_bytes() then counts only the pointer array, since element
  /// footprints are behind opaque vtables.
  static PooledStore from_factory(int n, const Factory& factory) {
    require(n >= 0, "store size must be non-negative");
    auto slots = std::make_shared<std::vector<std::unique_ptr<Base>>>();
    slots->reserve(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      auto p = factory(v);
      require_lit(p != nullptr, "process factory returned null");
      slots->push_back(std::move(p));
    }
    PooledStore s;
    s.count_ = n;
    s.data_ = slots->data();
    s.at_ = [](void* data, std::size_t i) -> Base* {
      return (*(static_cast<std::unique_ptr<Base>*>(data) + i)).get();
    };
    s.state_bytes_ =
        static_cast<std::size_t>(n) * sizeof(std::unique_ptr<Base>);
    s.owner_ = std::move(slots);
    return s;
  }

  int size() const { return count_; }
  bool empty() const { return count_ == 0; }

  Base& at(NodeId v) const {
    require(v >= 0 && v < count_, "process store index out of range");
    return *at_(data_, static_cast<std::size_t>(v));
  }

  /// at() for the parallel engines' per-event path: the same check, but
  /// tested before its message is built. at() itself keeps require():
  /// Network::step() calls it (see util/require_lit.h).
  Base& operator[](NodeId v) const {
    require_lit(v >= 0 && v < count_, "process store index out of range");
    return *at_(data_, static_cast<std::size_t>(v));
  }

  /// Bytes of pooled protocol state (the numerator of the `scale` table's
  /// bytes/node metric for the arena path; see docs/scale.md).
  std::size_t state_bytes() const { return state_bytes_; }

  /// True when the store can snapshot elements by slab copy (the pooled
  /// path with a copyable element type). When false, optimistic engines
  /// fall back to the per-process save_state/restore_state virtuals.
  bool snapshots_supported() const { return save_ != nullptr; }

  /// Allocates a fresh snapshot slab. Each concurrent consumer (one
  /// optimistic-engine shard, say) owns its own slab; the store itself
  /// stays immutable, so disjoint node sets snapshot without locks.
  std::shared_ptr<void> make_snapshot_slab() const {
    require(make_slab_ != nullptr, "store has no snapshot support");
    return make_slab_();
  }

  /// Copies element v into a slot of `slab` and returns its handle.
  std::uint32_t save_snapshot(void* slab, NodeId v) const {
    require_lit(v >= 0 && v < count_, "process store index out of range");
    return save_(slab, data_, static_cast<std::size_t>(v));
  }

  /// Copy-assigns the snapshot in `handle` back over element v. The
  /// handle stays live (restore does not consume it).
  void restore_snapshot(void* slab, NodeId v, std::uint32_t handle) const {
    require_lit(v >= 0 && v < count_, "process store index out of range");
    restore_(slab, data_, static_cast<std::size_t>(v), handle);
  }

  /// Releases a snapshot slot of `slab` for reuse (fossil collection).
  void drop_snapshot(void* slab, std::uint32_t handle) const {
    drop_(slab, handle);
  }

 private:
  int count_ = 0;
  void* data_ = nullptr;
  Base* (*at_)(void*, std::size_t) = nullptr;
  std::size_t state_bytes_ = 0;
  std::shared_ptr<void> owner_;

  // Optional snapshot thunks (pooled path, copyable T only).
  std::shared_ptr<void> (*make_slab_)() = nullptr;
  std::uint32_t (*save_)(void*, void*, std::size_t) = nullptr;
  void (*restore_)(void*, void*, std::size_t, std::uint32_t) = nullptr;
  void (*drop_)(void*, std::uint32_t) = nullptr;
};

}  // namespace csca
