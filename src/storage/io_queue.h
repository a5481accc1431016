// Waiting requests of one disk model, in arrival order.
//
// A ring over a vector whose size is a power of two. It grows only when
// full, so steady-state queueing allocates nothing, and under a standing
// backlog a new request lands in the slot just freed at the head, which is
// still in cache. (A std::deque allocates and frees a node every few
// requests as the queue slides forward.)
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "storage/io_request.h"

namespace tracer::storage {

class IoQueue {
 public:
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// The oldest waiting request; the queue must not be empty.
  const PendingIo& front() const { return slots_[head_]; }

  void push_back(PendingIo pending) {
    if (count_ == slots_.size()) {
      // Full: lay the ring out again in arrival order at twice the size.
      std::vector<PendingIo> grown(std::max<std::size_t>(16, 2 * slots_.size()));
      for (std::size_t k = 0; k < count_; ++k) grown[k] = at(k);
      slots_.swap(grown);
      head_ = 0;
    }
    at(count_++) = pending;
  }

  /// Remove and return the oldest waiting request.
  PendingIo take() {
    PendingIo pending = slots_[head_];
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
    return pending;
  }

 private:
  /// The waiting request `offset` places behind the head.
  PendingIo& at(std::size_t offset) {
    return slots_[(head_ + offset) & (slots_.size() - 1)];
  }

  std::vector<PendingIo> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace tracer::storage
