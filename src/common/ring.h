// A FIFO queue over one power-of-two array that grows and never shrinks, for
// the per-message queues on the data path (shm lanes, lane overflow, the
// conduit's retained window). std::deque frees and allocates a node every
// few elements as a queue flows; once a Ring has grown to its queue's
// working depth, pushing and popping allocate nothing.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace freeflow::common {

/// `T` must be default-constructible: a popped slot is reset to `T{}`, so it
/// holds no resource (a payload handle) until it is reused.
template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The i-th element from the front (i < size()).
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return slots_[mask(head_ + i)]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return slots_[mask(head_ + i)];
  }
  [[nodiscard]] T& front() noexcept { return slots_[head_]; }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == slots_.size()) grow();
    T& slot = slots_[mask(head_ + size_)];
    slot = T(std::forward<Args>(args)...);
    ++size_;
    return slot;
  }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  void pop_front() noexcept {
    slots_[head_] = T{};
    head_ = mask(head_ + 1);
    --size_;
  }
  void clear() noexcept {
    while (!empty()) pop_front();
  }

 private:
  [[nodiscard]] std::size_t mask(std::size_t i) const noexcept {
    return i & (slots_.size() - 1);
  }
  void grow() {
    std::vector<T> slots(slots_.empty() ? 8 : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i) slots[i] = std::move((*this)[i]);
    slots_ = std::move(slots);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< size is zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace freeflow::common
