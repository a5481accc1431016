// Discrete-event simulation kernel.
//
// Single-threaded per instance: parameter sweeps run many independent
// Simulators in parallel via util::ThreadPool rather than sharing one
// (see DESIGN.md §6). Events at equal timestamps fire in scheduling order
// (FIFO tie-break via a monotone sequence number) so runs are deterministic.
//
// The event queue is a flat binary heap over a std::vector of 32-byte
// trivially-copyable entries (time, seq, target, arg). Every event that
// fires per package or per child I/O is typed: the entry names an
// EventTarget and a 64-bit argument, and firing it is one
// `target->on_event(arg)` call, so the hot path builds, moves and destroys
// no closure. Cold timers (samplers, policies, pacing, tests) may still
// schedule a closure: it lives in a side slab indexed by the entry's arg
// and recycled through a free list, and its entry has no target. Both kinds
// share the heap and the sequence counter, so their relative order is the
// scheduling order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/slot_array.h"
#include "util/small_function.h"
#include "util/types.h"

namespace tracer::sim {

/// Receiver of typed events: `arg` is whatever the target scheduled with
/// (a bunch index, an in-flight slot, an epoch).
class EventTarget {
 public:
  virtual void on_event(std::uint64_t arg) = 0;

 protected:
  ~EventTarget() = default;
};

class Simulator {
 public:
  /// Cold-timer closure. Inline capacity 112 bytes, so a test device's
  /// completion closure (request, callback, completion record) needs no
  /// heap; larger closures fall back to the heap.
  using Action = util::SmallFunction<void(), 112>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time in seconds.
  Seconds now() const { return now_; }

  /// Schedule `target.on_event(arg)` at absolute time `at` (clamped to
  /// now()). `target` is borrowed and must outlive the event.
  void schedule_at(Seconds at, EventTarget& target, std::uint64_t arg) {
    push(at, &target, arg);
  }

  /// Typed event `delay` seconds from now (negative clamps to 0).
  void schedule_in(Seconds delay, EventTarget& target, std::uint64_t arg) {
    push(now_ + std::max(delay, 0.0), &target, arg);
  }

  /// Schedule `action` at absolute time `at` (clamped to now()).
  void schedule_at(Seconds at, Action action);

  /// Schedule `action` `delay` seconds from now (negative clamps to 0).
  void schedule_in(Seconds delay, Action action);

  /// Pre-size the event heap (e.g. before a replay with a known queue
  /// depth) so steady-state scheduling never reallocates. The closure slab
  /// is left to grow: only cold timers use it, and it keeps its capacity.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Number of events not yet fired.
  std::size_t pending() const { return heap_.size(); }

  /// Current allocation sizes of the event heap and closure slab. Replay
  /// regression tests assert these are stable across a replay after
  /// reserve() — growth means the in-flight estimate undershot and the hot
  /// loop paid a reallocation.
  std::size_t heap_capacity() const { return heap_.capacity(); }
  std::size_t slot_capacity() const { return closures_.capacity(); }

  /// Run until the event queue drains. Returns the final clock value.
  Seconds run();

  /// Fire every event with time <= t_end, then advance the clock to t_end
  /// (events scheduled beyond t_end stay queued). Returns the new clock.
  Seconds run_until(Seconds t_end);

  /// Fire at most one event. Returns false when the queue is empty.
  bool step();

  /// Drop all pending events (used between test phases).
  void clear();

  /// Total events dispatched over the simulator's lifetime.
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// How many schedule_at calls asked for a time already in the past and
  /// were clamped to now(). A persistently growing count during replay
  /// means the replayer is saturated and silently drifting from the
  /// trace's timing — accuracy benches should check this stays 0.
  std::uint64_t late_schedule_count() const { return late_schedules_; }

 private:
  struct Event {
    Seconds time;
    std::uint64_t seq;
    EventTarget* target;  ///< null for a closure event
    std::uint64_t arg;    ///< target's argument, or the closure's slot
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push(Seconds at, EventTarget* target, std::uint64_t arg) {
    if (at < now_) ++late_schedules_;
    heap_.push_back(Event{std::max(at, now_), next_seq_++, target, arg});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t late_schedules_ = 0;
  std::vector<Event> heap_;  ///< binary min-time heap (Later comparator)
  util::SlotArray<Action> closures_;  ///< addressed by Event::arg
};

}  // namespace tracer::sim
