#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace tracer::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_in(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
  // Negative relative delays clamp too.
  Simulator sim2;
  double at = -1.0;
  sim2.schedule_in(-5.0, [&] { at = sim2.now(); });
  sim2.run();
  EXPECT_DOUBLE_EQ(at, 0.0);
}

TEST(Simulator, RunUntilLeavesLaterEventsQueued) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilFiresEventsAtExactBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StepFiresOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, ClearDropsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.clear();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, EventsScheduledDuringRunAreExecuted) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(0.1, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_NEAR(sim.now(), 9.9, 1e-9);
}

TEST(Simulator, CountsLateSchedulesInsteadOfSilentlyDrifting) {
  Simulator sim;
  EXPECT_EQ(sim.late_schedule_count(), 0u);
  double fired_at = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_at(3.0, [&] { fired_at = sim.now(); });  // past due
    sim.schedule_at(11.0, [] {});                         // on time
  });
  sim.run();
  // The clamp still applies (replay keeps going)...
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
  // ...but a saturated replayer is now detectable.
  EXPECT_EQ(sim.late_schedule_count(), 1u);
}

TEST(Simulator, NegativeDelaysDoNotCountAsLate) {
  // schedule_in clamps negative delays to zero *before* schedule_at sees
  // the time, so they are an explicit "now" rather than a drift signal.
  Simulator sim;
  sim.schedule_in(-5.0, [] {});
  EXPECT_EQ(sim.late_schedule_count(), 0u);
  sim.run();
}

TEST(Simulator, LargeClosuresStillWorkViaHeapFallback) {
  Simulator sim;
  std::array<double, 40> payload{};  // 320 bytes, beyond the inline buffer
  payload[0] = 1.0;
  double sum = 0.0;
  sim.schedule_at(1.0, [payload, &sum] { sum += payload[0]; });
  sim.run();
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(Simulator, ReserveDoesNotDisturbPendingEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.reserve(1024);
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
}

/// Typed-event target that records its arguments in firing order.
class Recorder final : public EventTarget {
 public:
  explicit Recorder(std::vector<std::uint64_t>& order) : order_(order) {}
  void on_event(std::uint64_t arg) override { order_.push_back(arg); }

 private:
  std::vector<std::uint64_t>& order_;
};

TEST(Simulator, TypedAndClosureEventsAtOneTimeFireInSchedulingOrder) {
  Simulator sim;
  std::vector<std::uint64_t> order;
  Recorder recorder(order);
  // Even numbers are typed events, odd ones closures, all at t = 1.
  for (std::uint64_t i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      sim.schedule_at(1.0, recorder, i);
    } else {
      sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
    }
  }
  // Scheduled while t = 1 fires: behind everything already queued there.
  sim.schedule_at(0.5, [&] {
    sim.schedule_at(1.0, recorder, 10);
    sim.schedule_in(0.5, [&order] { order.push_back(11); });
  });
  sim.run();
  std::vector<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < 12; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sim.events_dispatched(), 13u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulator, TypedEventsClampPastTimesAndCountThem) {
  Simulator sim;
  std::vector<std::uint64_t> order;
  Recorder recorder(order);
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_at(1.0, recorder, 7);  // in the past
    sim.schedule_in(-1.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{7}));
  EXPECT_DOUBLE_EQ(fired_at, 2.0);
  EXPECT_EQ(sim.late_schedule_count(), 1u);
}

TEST(Simulator, CountsDispatchedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_dispatched(), 7u);
}

// ---- Handlers that schedule, count, clear or throw while their own event
// fires, and a randomized check of the heap against a reference queue.

TEST(Simulator, HandlersSchedulingNoneOneOrThreeEventsKeepTimeOrder) {
  Simulator sim;
  std::vector<std::uint64_t> order;
  Recorder recorder(order);
  sim.schedule_at(1.0, [] {});  // schedules nothing: a plain pop
  sim.schedule_at(2.0, [&] { sim.schedule_in(3.0, recorder, 1); });
  sim.schedule_at(3.0, [&] {
    sim.schedule_in(0.5, recorder, 2);
    sim.schedule_in(2.5, recorder, 4);
    sim.schedule_in(1.5, recorder, 3);
  });
  sim.schedule_at(4.0, recorder, 0);
  sim.run();
  // 2 at 3.5, 0 at 4.0, 3 at 4.5, 1 at 5.0, 4 at 5.5.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 0, 3, 1, 4}));
  EXPECT_EQ(sim.events_dispatched(), 8u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.5);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, EqualTimesStayFifoWhenAHandlerSchedulesAtItsOwnTime) {
  Simulator sim;
  std::vector<std::uint64_t> order;
  Recorder recorder(order);
  // The first event at t = 1 schedules more at t = 1 while it fires;
  // they must fire after everything already queued at t = 1.
  sim.schedule_at(1.0, [&] {
    order.push_back(0);
    sim.schedule_at(1.0, recorder, 4);
    sim.schedule_in(0.0, [&] { order.push_back(5); });
  });
  sim.schedule_at(1.0, recorder, 1);
  sim.schedule_at(1.0, [&] {
    order.push_back(2);
    sim.schedule_at(1.0, recorder, 6);
  });
  sim.schedule_at(1.0, recorder, 3);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(Simulator, PendingInsideAHandlerExcludesTheFiringEvent) {
  Simulator sim;
  std::vector<std::size_t> seen;
  sim.schedule_at(1.0, [&] {
    seen.push_back(sim.pending());  // the two at t = 2 and 3
    sim.schedule_in(5.0, [&] { seen.push_back(sim.pending()); });
    seen.push_back(sim.pending());
    sim.schedule_in(6.0, [] {});
    seen.push_back(sim.pending());
  });
  sim.schedule_at(2.0, [&] { seen.push_back(sim.pending()); });
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 3, 4, 3, 1}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ClearInsideAHandlerDropsEveryOtherEvent) {
  Simulator sim;
  std::vector<std::uint64_t> order;
  Recorder recorder(order);
  sim.schedule_at(1.0, [&] {
    order.push_back(0);
    sim.clear();
    EXPECT_EQ(sim.pending(), 0u);
    sim.schedule_in(1.0, recorder, 3);  // after clear(): still fires
  });
  sim.schedule_at(2.0, recorder, 1);
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);

  // clear() as the handler's last act leaves nothing to pop.
  sim.schedule_at(3.0, [&] {
    sim.schedule_in(1.0, recorder, 9);
    sim.clear();
  });
  sim.schedule_at(5.0, recorder, 8);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 3}));
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ClosureTimersRescheduleThemselves) {
  Simulator sim;
  std::vector<std::uint64_t> order;
  Recorder recorder(order);
  std::vector<double> ticks;
  std::function<void()> tick = [&] {
    ticks.push_back(sim.now());
    if (ticks.size() < 5) sim.schedule_in(1.0, tick);
  };
  sim.schedule_at(0.0, tick);
  sim.schedule_at(2.5, recorder, 1);
  sim.run();
  EXPECT_EQ(ticks, (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(sim.events_dispatched(), 6u);
}

TEST(Simulator, AHandlerThatThrowsLeavesTheQueueUsable) {
  Simulator sim;
  std::vector<std::uint64_t> order;
  Recorder recorder(order);
  sim.schedule_at(1.0, [] { throw std::runtime_error("handler"); });
  sim.schedule_at(2.0, recorder, 1);
  sim.schedule_at(3.0, recorder, 2);
  EXPECT_THROW(sim.step(), std::runtime_error);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
}

/// Every firing event schedules 0-3 children at delays on a 0.25 s grid, so
/// many share a time; even ids are typed events, odd ids closures. Stops
/// scheduling after `limit` events.
class Spawner final : public EventTarget {
 public:
  Spawner(Simulator& sim, std::uint64_t limit) : sim_(sim), limit_(limit) {}

  void schedule() {
    const Seconds delay = 0.25 * static_cast<double>(rng_.below(4));
    const std::uint64_t id = next_id_++;
    if (id % 2 == 0) {
      sim_.schedule_in(delay, *this, id);
    } else {
      sim_.schedule_in(delay, [this, id] { on_event(id); });
    }
  }
  void on_event(std::uint64_t id) override {
    fired.push_back(id);
    const std::uint64_t children = rng_.below(4);
    for (std::uint64_t k = 0; k < children && next_id_ < limit_; ++k) {
      schedule();
    }
  }

  std::vector<std::uint64_t> fired;

 private:
  Simulator& sim_;
  std::uint64_t limit_;
  util::Rng rng_{2024};
  std::uint64_t next_id_ = 0;
};

/// The same process over a std::priority_queue ordered on (time, seq).
std::vector<std::uint64_t> reference_order(std::uint64_t limit,
                                           std::uint64_t roots) {
  struct Entry {
    Seconds time;
    std::uint64_t seq;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> queue(later);
  util::Rng rng(2024);
  std::uint64_t next_id = 0;
  Seconds now = 0.0;
  const auto schedule = [&] {
    queue.push({now + 0.25 * static_cast<double>(rng.below(4)), next_id++});
  };
  for (std::uint64_t i = 0; i < roots; ++i) schedule();
  std::vector<std::uint64_t> fired;
  while (!queue.empty()) {
    const Entry entry = queue.top();
    queue.pop();
    now = entry.time;
    fired.push_back(entry.seq);  // ids are handed out in scheduling order
    const std::uint64_t children = rng.below(4);
    for (std::uint64_t k = 0; k < children && next_id < limit; ++k) {
      schedule();
    }
  }
  return fired;
}

TEST(Simulator, RandomizedFiringOrderMatchesPriorityQueueReference) {
  constexpr std::uint64_t kEvents = 100000;
  constexpr std::uint64_t kRoots = 64;
  Simulator sim;
  Spawner spawner(sim, kEvents);
  for (std::uint64_t i = 0; i < kRoots; ++i) spawner.schedule();
  // Drive through run_until boundaries as well as run().
  for (Seconds t = 0.0; t < 50.0; t += 3.7) sim.run_until(t);
  sim.run();
  ASSERT_EQ(spawner.fired.size(), kEvents);
  EXPECT_EQ(spawner.fired, reference_order(kEvents, kRoots));
  EXPECT_EQ(sim.events_dispatched(), kEvents);
}

}  // namespace
}  // namespace tracer::sim
