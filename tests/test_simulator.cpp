#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

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

}  // namespace
}  // namespace tracer::sim
