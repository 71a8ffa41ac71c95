// Messages exchanged by simulated protocols.
//
// A message carries a protocol-defined integer type tag and a small
// sequence of integers as payload; protocols define their own enum of
// type tags and encode/decode payload fields positionally. Delivery
// metadata (sender, edge) is stamped by the engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>

#include "graph/graph.h"
#include "util/require_lit.h"

namespace csca {

/// Traffic class for cost accounting. The paper repeatedly separates the
/// cost of the simulated algorithm from the overhead of the transformer
/// wrapped around it (synchronizer pulses/acks, controller permits);
/// keeping the classes distinct in the engine lets benches report each
/// side of the ledger exactly as the paper defines it.
enum class MsgClass {
  kAlgorithm,  ///< messages of the protocol under study
  kControl,    ///< synchronizer / controller overhead messages
  kRecovery,   ///< re-stabilization traffic after topology churn
};

/// Number of MsgClass values; per-class engine arrays size from this so
/// adding a class is a one-line change plus the billing branch in
/// RunStats::charge.
inline constexpr int kMsgClassCount = 3;

/// Index of cls into a per-class array of kMsgClassCount entries.
inline constexpr std::size_t class_index(MsgClass cls) {
  return static_cast<std::size_t>(cls);
}

/// Payload storage with a small-buffer optimization. Almost every
/// protocol message in this repo carries at most 4 int64 fields (tags,
/// levels, distances); those live inline and a send allocates nothing.
/// Longer payloads (the synchronizer/controller wrappers prepend fields,
/// full-information tree streams) spill to the heap transparently. The
/// interface is the subset of std::vector the protocols use. Size and
/// capacity are 32-bit so a Message packs into a single cache line
/// (payloads beyond 2^32 - 1 fields are rejected).
class Payload {
 public:
  using value_type = std::int64_t;
  using iterator = std::int64_t*;
  using const_iterator = const std::int64_t*;

  static constexpr std::size_t kInlineCapacity = 4;

  Payload() = default;
  Payload(std::initializer_list<std::int64_t> init) {
    append(init.begin(), init.end());
  }
  template <typename It>
  Payload(It first, It last) {
    append(first, last);
  }

  Payload(const Payload& o) { append(o.begin(), o.end()); }
  Payload(Payload&& o) noexcept { steal(o); }
  Payload& operator=(const Payload& o) {
    if (this != &o) {
      size_ = 0;
      append(o.begin(), o.end());
    }
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      release();
      data_ = inline_;
      capacity_ = kInlineCapacity;
      steal(o);
    }
    return *this;
  }
  ~Payload() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return capacity_; }
  bool is_inline() const { return data_ == inline_; }

  std::int64_t& operator[](std::size_t i) { return data_[i]; }
  std::int64_t operator[](std::size_t i) const { return data_[i]; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

  void push_back(std::int64_t v) {
    if (size_ == capacity_) grow(std::size_t{2} * capacity_);
    data_[size_++] = v;
  }

  void clear() { size_ = 0; }

  template <typename It>
  void assign(It first, It last) {
    size_ = 0;
    append(first, last);
  }

  /// Inserts [first, last) before pos. The range must not alias this
  /// payload's own storage.
  template <typename It>
  iterator insert(const_iterator pos, It first, It last) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    const std::size_t count =
        static_cast<std::size_t>(std::distance(first, last));
    reserve(size_ + count);
    iterator p = data_ + at;
    std::move_backward(p, data_ + size_, data_ + size_ + count);
    std::copy(first, last, p);
    size_ += static_cast<std::uint32_t>(count);
    return p;
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  template <typename It>
  void append(It first, It last) {
    const std::size_t count =
        static_cast<std::size_t>(std::distance(first, last));
    reserve(size_ + count);
    std::copy(first, last, data_ + size_);
    size_ += static_cast<std::uint32_t>(count);
  }

  void grow(std::size_t want) {
    const std::size_t cap = std::max(want, std::size_t{2} * capacity_);
    require(cap <= UINT32_MAX, "payload too large");
    std::int64_t* fresh = new std::int64_t[cap];
    std::copy(data_, data_ + size_, fresh);
    release();
    data_ = fresh;
    capacity_ = static_cast<std::uint32_t>(cap);
  }

  void release() {
    if (data_ != inline_) delete[] data_;
  }

  // Leaves o empty with inline storage.
  //
  // The copy below is bounded by o.size_, so it never reads an
  // uninitialized inline word; GCC 12's inliner cannot prove that for
  // a moved-from temporary and flags -Wmaybe-uninitialized spuriously
  // at some call sites under -O2 (observed in sanitizer builds).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
  void steal(Payload& o) noexcept {
    if (o.data_ == o.inline_) {
      std::copy(o.data_, o.data_ + o.size_, inline_);
      data_ = inline_;
      size_ = o.size_;
      capacity_ = kInlineCapacity;
    } else {
      data_ = o.data_;
      size_ = o.size_;
      capacity_ = o.capacity_;
      o.data_ = o.inline_;
      o.capacity_ = kInlineCapacity;
    }
    o.size_ = 0;
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  std::int64_t* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInlineCapacity;
  std::int64_t inline_[kInlineCapacity];
};

struct alignas(64) Message {
  int type = 0;

  // Delivery metadata, stamped by the engine on receipt.
  NodeId from = kNoNode;
  EdgeId edge = kNoEdge;

  Payload data;

  Message() = default;
  explicit Message(int type_tag) : type(type_tag) {}
  Message(int type_tag, Payload payload)
      : type(type_tag), data(std::move(payload)) {}

  /// Payload accessor with bounds checking; protocols read fields by index.
  std::int64_t at(std::size_t i) const {
    require_lit(i < data.size(), "message payload index out of range");
    return data[i];
  }
};

// The engines pool Messages in an event arena and read/write one per
// delivery; a single-cache-line layout keeps that to one miss each way.
static_assert(sizeof(Payload) == 48, "payload should stay compact");
static_assert(sizeof(Message) == 64, "message should fill one cache line");

/// Cumulative cost ledger of one simulation run.
struct RunStats {
  std::int64_t algorithm_messages = 0;
  std::int64_t control_messages = 0;
  std::int64_t recovery_messages = 0;
  Weight algorithm_cost = 0;  ///< sum of w(e) over algorithm messages
  Weight control_cost = 0;    ///< sum of w(e) over control messages
  Weight recovery_cost = 0;   ///< sum of w(e) over recovery messages
  double completion_time = 0; ///< time of the last delivered edge message
  std::int64_t events = 0;    ///< total deliveries processed

  std::int64_t total_messages() const {
    return algorithm_messages + control_messages + recovery_messages;
  }
  Weight total_cost() const {
    return algorithm_cost + control_cost + recovery_cost;
  }

  /// Bills one message of class cls over an edge of weight w: the one
  /// billing site every engine charges through.
  void charge(MsgClass cls, Weight w) {
    if (cls == MsgClass::kAlgorithm) {
      ++algorithm_messages;
      algorithm_cost += w;
    } else if (cls == MsgClass::kControl) {
      ++control_messages;
      control_cost += w;
    } else {
      ++recovery_messages;
      recovery_cost += w;
    }
  }

  /// Adds o's six message/cost fields (not events or completion_time,
  /// whose merge rule depends on what the two ledgers cover).
  void add_ledger(const RunStats& o) {
    algorithm_messages += o.algorithm_messages;
    control_messages += o.control_messages;
    recovery_messages += o.recovery_messages;
    algorithm_cost += o.algorithm_cost;
    control_cost += o.control_cost;
    recovery_cost += o.recovery_cost;
  }
};

/// Shared running total of control-class transmission cost, written by
/// an overhead layer (the ARQ reliable links) and read by an admission
/// authority (the §5 controller's root) inside the same sequential run.
/// This is how physical overhead that never asks for permits — ARQ
/// retransmits and ACKs under a fault plan — still counts against the
/// root's permit threshold: the root treats `billed` as implicitly
/// issued. Sequential-engine only: writer and reader share one event
/// loop, so there is no synchronization (and must not be any need for
/// it). See control/controller.h (RunEnv::meter) and docs/faults.md.
struct ControlMeter {
  Weight billed = 0;
};

}  // namespace csca
