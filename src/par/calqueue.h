// Calendar queue for the optimistic engine's far event horizon.
//
// A Time Warp shard's pending set is wide: speculation runs far ahead
// of GVT, so the queue holds events spread over a long time range, and
// a single binary heap pays O(log n) per operation on all of them. The
// classic calendar queue (Brown '88; the ROOT-Sim lineage of
// optimistic simulators) buckets events by time "day" within a ring of
// buckets ("year" = one lap of the ring), making enqueue O(1) and
// dequeue amortized O(1) under stable event populations.
//
// This file composes two pieces:
//
//   * CalQueue — the raw ring. push files an item under
//     floor(t / width); drain_min_bucket extracts the earliest
//     non-empty day in one batch (items unsorted within the batch).
//     min_time is that day's floor: a *lower bound* on the true
//     minimum, which is exactly what GVT needs (candidates may only
//     under-approximate). Bucket count doubles when the population
//     outgrows the ring.
//   * TieredCalQueue — near/far split. Items below the near horizon
//     live in a binary heap ordered by the engine's full comparator
//     (time + genealogy); items at or beyond it sit unsorted in the
//     calendar. When the heap drains, the earliest calendar day
//     migrates into the heap and the horizon advances to that day's
//     upper edge. Rollback re-insertions below the horizon go straight
//     to the heap, so pop order is total and exact while the far
//     majority of pending events stays out of every heap sift.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/require.h"
#include "util/require_lit.h"

namespace csca {

/// TimeOf: functor mapping an item to its double timestamp (>= 0).
template <typename Item, typename TimeOf>
class CalQueue {
 public:
  explicit CalQueue(double width = 1.0, std::size_t buckets = 8)
      : width_(width), ring_(std::max<std::size_t>(buckets, 1)) {
    require(width > 0.0, "calendar bucket width must be positive");
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(Item item) {
    const std::int64_t day = day_of(TimeOf{}(item));
    if (size_ == 0 || day < min_day_) min_day_ = day;
    ring_[slot(day)].push_back(std::move(item));
    ++size_;
    if (size_ > kItemsPerBucket * ring_.size()) grow();
  }

  /// Lower bound on the earliest timestamp present (the floor of the
  /// earliest non-empty day). Requires a non-empty queue.
  double min_time() const {
    require_lit(size_ > 0, "min_time of an empty calendar");
    return static_cast<double>(min_day_) * width_;
  }

  /// Exclusive upper edge of the earliest non-empty day.
  double min_day_end() const {
    require_lit(size_ > 0, "min_day_end of an empty calendar");
    return static_cast<double>(min_day_ + 1) * width_;
  }

  /// Moves every item of the earliest non-empty day into `out`
  /// (appended, unsorted) and advances the internal minimum.
  void drain_min_bucket(std::vector<Item>& out) {
    require_lit(size_ > 0, "drain of an empty calendar");
    std::vector<Item>& b = ring_[slot(min_day_)];
    // The bucket may mix days a whole year (or more) apart: keep the
    // later ones, hand over exactly the min day.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < b.size(); ++i) {
      if (day_of(TimeOf{}(b[i])) == min_day_) {
        out.push_back(std::move(b[i]));
        --size_;
      } else {
        b[kept++] = std::move(b[i]);
      }
    }
    require_lit(kept < b.size(), "min bucket held no min-day item");
    b.resize(kept);
    if (size_ == 0) return;
    advance_min_day();
  }

 private:
  // Growth threshold: amortizes the rebuild while keeping buckets short.
  static constexpr std::size_t kItemsPerBucket = 8;

  std::int64_t day_of(double t) const {
    require_lit(t >= 0.0 && t < std::numeric_limits<double>::infinity(),
                "calendar timestamps must be finite and non-negative");
    return static_cast<std::int64_t>(t / width_);
  }

  std::size_t slot(std::int64_t day) const {
    return static_cast<std::size_t>(day) % ring_.size();
  }

  /// Classic calendar scan: lap the ring looking for an item dated in
  /// each successive day; if a whole year passes empty, fall back to a
  /// direct minimum over everything (events jumped far ahead).
  void advance_min_day() {
    const std::int64_t lap_end =
        min_day_ + static_cast<std::int64_t>(ring_.size());
    for (std::int64_t day = min_day_ + 1; day <= lap_end; ++day) {
      for (const Item& it : ring_[slot(day)]) {
        if (day_of(TimeOf{}(it)) == day) {
          min_day_ = day;
          return;
        }
      }
    }
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (const std::vector<Item>& b : ring_) {
      for (const Item& it : b) best = std::min(best, day_of(TimeOf{}(it)));
    }
    min_day_ = best;
  }

  void grow() {
    std::vector<std::vector<Item>> old = std::move(ring_);
    ring_.assign(old.size() * 2, {});
    for (std::vector<Item>& b : old) {
      for (Item& it : b) {
        ring_[slot(day_of(TimeOf{}(it)))].push_back(std::move(it));
      }
    }
  }

  double width_;
  std::vector<std::vector<Item>> ring_;
  std::int64_t min_day_ = 0;
  std::size_t size_ = 0;
};

/// Near/far tiering. `After` is a std::push_heap-style comparator that
/// keeps the *first* item (in the engine's total order) on heap front —
/// the same shape ShardEngine::entry_after has.
template <typename Item, typename TimeOf, typename After>
class TieredCalQueue {
 public:
  explicit TieredCalQueue(double cal_width = 1.0)
      : cal_(cal_width) {}

  bool empty() const { return heap_.empty() && cal_.empty(); }
  std::size_t size() const { return heap_.size() + cal_.size(); }

  void push(Item item) {
    if (TimeOf{}(item) < horizon_) {
      heap_.push_back(std::move(item));
      std::push_heap(heap_.begin(), heap_.end(), After{});
    } else {
      cal_.push(std::move(item));
    }
  }

  /// First pending item in total order. Sound because every calendar
  /// item's time is >= horizon_ > every heap item's time.
  const Item& top() {
    refill();
    require_lit(!heap_.empty(), "top of an empty queue");
    return heap_.front();
  }

  Item pop() {
    refill();
    require_lit(!heap_.empty(), "pop of an empty queue");
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    Item out = std::move(heap_.back());
    heap_.pop_back();
    return out;
  }

  /// Lower bound on the earliest pending time: exact when the heap is
  /// non-empty, the earliest calendar day's floor otherwise. GVT
  /// candidates built on this only under-approximate, which is safe.
  double min_time() const {
    if (!heap_.empty()) return TimeOf{}(heap_.front());
    if (!cal_.empty()) return cal_.min_time();
    return std::numeric_limits<double>::infinity();
  }

 private:
  void refill() {
    while (heap_.empty() && !cal_.empty()) {
      horizon_ = cal_.min_day_end();
      migrate_.clear();
      cal_.drain_min_bucket(migrate_);
      for (Item& it : migrate_) {
        heap_.push_back(std::move(it));
        std::push_heap(heap_.begin(), heap_.end(), After{});
      }
    }
  }

  CalQueue<Item, TimeOf> cal_;
  std::vector<Item> heap_;
  std::vector<Item> migrate_;  // reused drain scratch
  double horizon_ = 0.0;
};

}  // namespace csca
