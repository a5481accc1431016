// Values parked until an event or a completion names their slot again: the
// simulator's cold-timer closures, the SSD model's requests in service and
// the cache tier's foreground requests. A taken slot goes on a free list and
// is reused first, so a steady state allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace tracer::util {

template <typename T>
class SlotArray {
 public:
  void reserve(std::size_t slots) {
    values_.reserve(slots);
    free_.reserve(slots);
  }
  std::size_t capacity() const { return values_.capacity(); }
  /// Values parked and not yet taken.
  std::size_t size() const { return values_.size() - free_.size(); }

  /// Park `value`; returns its slot.
  std::uint32_t put(T value) {
    if (free_.empty()) {
      values_.push_back(std::move(value));
      return static_cast<std::uint32_t>(values_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    values_[slot] = std::move(value);
    return slot;
  }

  /// Hand back the value in `slot` and free the slot.
  T take(std::uint32_t slot) {
    T value = std::move(values_[slot]);
    free_.push_back(slot);
    return value;
  }

  void clear() {
    values_.clear();
    free_.clear();
  }

 private:
  std::vector<T> values_;
  std::vector<std::uint32_t> free_;  ///< slots of values_ not in use
};

}  // namespace tracer::util
