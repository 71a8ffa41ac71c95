// Growable ring buffer: a double-ended queue over one power-of-two array.
//
// TimeWarp keeps its processed-but-uncommitted events and their undo
// records in entry order, appending at the back, rolling back from the
// back and committing from the front. std::deque allocates and frees a
// block every few hundred bytes of that traffic; a Ring allocates only
// when its population reaches a new high, so the speculative event loop
// runs allocation-free once warm. Popped elements are not destroyed;
// they stay in place until a later push overwrites them.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace csca {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
  T& front() { return buf_[head_]; }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    (*this)[size_++] = std::move(value);
  }

  void pop_back() { --size_; }

  void pop_front(std::size_t n = 1) {
    head_ = (head_ + n) & mask_;
    size_ -= n;
  }

 private:
  void grow() {
    std::vector<T> next(buf_.empty() ? 64 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = buf_.size() - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace csca
