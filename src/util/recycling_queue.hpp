// A FIFO queue over a ring of retained elements.
//
// push_back() hands out the slot at the back still holding whatever an
// earlier element left there, and pop_front() only moves the head, so an
// element that owns heap blocks (an Action's args, a Message's fields) is
// refilled by copy-assignment into those blocks instead of being built,
// and freed, per element. The ring grows when full and never shrinks.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace psc {

template <typename T>
class RecyclingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }

  // The new back element, for the caller to assign every field of.
  T& push_back() {
    if (size_ == items_.size()) {
      // Unroll the ring so the new slot lands after the current back.
      std::rotate(items_.begin(),
                  items_.begin() + static_cast<std::ptrdiff_t>(head_),
                  items_.end());
      head_ = 0;
      items_.emplace_back();
    }
    T& back = items_[(head_ + size_) % items_.size()];
    ++size_;
    return back;
  }

  void pop_front() {
    head_ = (head_ + 1) % items_.size();
    --size_;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace psc
