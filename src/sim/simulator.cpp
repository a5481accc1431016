#include "sim/simulator.h"

#include <algorithm>

namespace tracer::sim {

void Simulator::schedule_at(Seconds at, Action action) {
  push(at, nullptr, closures_.put(std::move(action)));
}

void Simulator::schedule_in(Seconds delay, Action action) {
  schedule_at(now_ + std::max(delay, 0.0), std::move(action));
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event event = heap_.back();
  heap_.pop_back();
  now_ = event.time;
  ++dispatched_;
  if (event.target != nullptr) {
    event.target->on_event(event.arg);
    return true;
  }
  // Take the closure out and free its slot *before* invoking: the action
  // may schedule new events (and thus reuse the slot).
  Action action = closures_.take(static_cast<std::uint32_t>(event.arg));
  action();
  return true;
}

Seconds Simulator::run() {
  while (step()) {
  }
  return now_;
}

Seconds Simulator::run_until(Seconds t_end) {
  while (!heap_.empty() && heap_.front().time <= t_end) {
    step();
  }
  now_ = std::max(now_, t_end);
  return now_;
}

void Simulator::clear() {
  heap_.clear();
  closures_.clear();
}

}  // namespace tracer::sim
