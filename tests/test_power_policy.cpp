#include "storage/power_policy.h"

#include <gtest/gtest.h>

#include "storage/callback_sink.h"
#include "storage/disk_array.h"

namespace tracer::storage {
namespace {

TEST(HddPowerStates, SpinDownCutsStandingDraw) {
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(sim, params, 1);
  sim.run_until(10.0);
  EXPECT_TRUE(hdd.spin_down());
  EXPECT_EQ(hdd.power_state(), HddModel::PowerState::kStandby);
  const Joules energy = hdd.energy_until(20.0);
  // 10 s at idle + 10 s at standby.
  EXPECT_NEAR(energy, 10 * params.idle_watts + 10 * params.standby_watts,
              1e-6);
}

TEST(HddPowerStates, SpinDownRefusedWhileBusy) {
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(sim, params, 1);
  bool completed = false;
  CallbackSink done;
  hdd.submit(IoRequest{1, 0, 65536, OpType::kRead},
             done.bind([&completed](const IoCompletion&) {
               completed = true;
             }));
  EXPECT_FALSE(hdd.spin_down());  // request queued/in service
  sim.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(hdd.spin_down());
}

TEST(HddPowerStates, IoArrivalWakesStandbyDriveWithSpinUpLatency) {
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(sim, params, 1);
  ASSERT_TRUE(hdd.spin_down());
  Seconds latency = -1.0;
  CallbackSink done;
  sim.schedule_at(5.0, [&] {
    hdd.submit(IoRequest{1, 0, 4096, OpType::kRead},
               done.bind([&latency](const IoCompletion& c) {
                 latency = c.latency();
               }));
  });
  sim.run();
  EXPECT_EQ(hdd.power_state(), HddModel::PowerState::kActive);
  EXPECT_EQ(hdd.spin_ups(), 1u);
  EXPECT_GE(latency, params.spin_up_time);         // paid the spin-up
  EXPECT_LT(latency, params.spin_up_time + 0.05);  // then normal service
}

TEST(HddPowerStates, SpinUpConsumesSurgeEnergy) {
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(sim, params, 1);
  hdd.spin_down();
  hdd.spin_up();
  sim.run();
  const Joules energy = hdd.energy_until(params.spin_up_time);
  // Surge: idle + spin_up_extra during the whole spin-up window.
  EXPECT_NEAR(energy,
              (params.idle_watts + params.spin_up_extra_watts) *
                  params.spin_up_time,
              1e-6);
}

TEST(HddPowerStates, WakeCycleEnergyExactJoules) {
  // Full idle -> standby -> spin-up cycle, energy pinned to exact joules.
  // The base must sit at idle_watts (not standby_watts) for the whole
  // kSpinningUp window; with the defaults (idle 8 W, standby 1.2 W,
  // spin-up 6 s) a standby-base would under-count by 6.8 x 6 = 40.8 J.
  sim::Simulator sim;
  HddParams params;
  HddModel hdd(sim, params, 1);
  sim.schedule_at(10.0, [&] { ASSERT_TRUE(hdd.spin_down()); });
  sim.schedule_at(20.0, [&] { hdd.spin_up(); });
  sim.run();
  EXPECT_EQ(hdd.power_state(), HddModel::PowerState::kActive);
  const Joules expected =
      10.0 * params.idle_watts + 10.0 * params.standby_watts +
      params.spin_up_time * (params.idle_watts + params.spin_up_extra_watts);
  EXPECT_NEAR(hdd.energy_until(20.0 + params.spin_up_time), expected, 1e-9);
}

TEST(HddPowerStates, RedundantSpinUpIsNoop) {
  sim::Simulator sim;
  HddModel hdd(sim, HddParams{}, 1);
  hdd.spin_up();  // already active
  EXPECT_EQ(hdd.power_state(), HddModel::PowerState::kActive);
  EXPECT_EQ(hdd.spin_ups(), 0u);
}

TEST(SpinDownManager, RejectsBadParameters) {
  sim::Simulator sim;
  SpinDownPolicyParams params;
  params.idle_timeout = 0.0;
  EXPECT_THROW(SpinDownManager(sim, {}, params), std::invalid_argument);
  SpinDownPolicyParams ok;
  EXPECT_THROW(SpinDownManager(sim, {nullptr}, ok), std::invalid_argument);
}

TEST(SpinDownManager, SpinsDownIdleDisksAfterTimeout) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  SpinDownPolicyParams params;
  params.idle_timeout = 5.0;
  SpinDownManager manager(sim, array.hdd_disks(), params);
  manager.schedule(0.0, 20.0);
  sim.run();
  EXPECT_EQ(manager.active_disks(), 0u);
  EXPECT_EQ(manager.spin_downs(), 6u);
  // Idle array power collapses towards enclosure + standby.
  EXPECT_NEAR(array.power_at(20.0), 30.0 + 6 * HddParams{}.standby_watts,
              1e-6);
}

TEST(SpinDownManager, MinActiveDisksFloorIsRespected) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  SpinDownPolicyParams params;
  params.idle_timeout = 2.0;
  params.min_active_disks = 2;
  SpinDownManager manager(sim, array.hdd_disks(), params);
  manager.schedule(0.0, 30.0);
  sim.run();
  EXPECT_EQ(manager.active_disks(), 2u);
  EXPECT_EQ(manager.spin_downs(), 4u);
}

TEST(SpinDownManager, VictimsPickedByLeastRecentActivityNotVectorOrder) {
  // Three disks last touched at t=1 (A), t=2 (B), t=3 (C), handed to the
  // manager in the order [C, A, B]. With an always-hot floor of 2 only one
  // disk may spin down, and it must be A — the least recently used — not C,
  // which merely happens to come first in the vector.
  sim::Simulator sim;
  HddParams hdd_params;
  HddModel a(sim, hdd_params, 0), b(sim, hdd_params, 1), c(sim, hdd_params, 2);
  CallbackSink done;
  auto touch = [&](HddModel& disk, Seconds at) {
    sim.schedule_at(at, [&disk, &done] {
      disk.submit(IoRequest{1, 0, 4096, OpType::kRead},
                  done.bind([](const IoCompletion&) {}));
    });
  };
  touch(a, 1.0);
  touch(b, 2.0);
  touch(c, 3.0);
  SpinDownPolicyParams params;
  params.idle_timeout = 5.0;
  params.min_active_disks = 2;
  SpinDownManager manager(sim, {&c, &a, &b}, params);
  sim.schedule_at(10.0, [&] { manager.evaluate(); });
  sim.run();
  EXPECT_EQ(manager.spin_downs(), 1u);
  EXPECT_EQ(a.power_state(), HddModel::PowerState::kStandby);
  EXPECT_EQ(b.power_state(), HddModel::PowerState::kActive);
  EXPECT_EQ(c.power_state(), HddModel::PowerState::kActive);
}

TEST(SpinDownManager, SpinningUpDiskDoesNotHoldFloorSlot) {
  // A kSpinningUp disk cannot serve requests yet, so it must not count
  // toward min_active_disks: with a floor of 1 and the only ready disk
  // being disk B, B has to stay hot even though the array nominally has
  // two non-standby drives.
  sim::Simulator sim;
  HddParams hdd_params;
  HddModel a(sim, hdd_params, 0), b(sim, hdd_params, 1);
  ASSERT_TRUE(a.spin_down());
  a.spin_up();  // kSpinningUp until t = spin_up_time (6 s)
  SpinDownPolicyParams params;
  params.idle_timeout = 1.0;
  params.min_active_disks = 1;
  SpinDownManager manager(sim, {&a, &b}, params);
  sim.schedule_at(2.0, [&] { manager.evaluate(); });
  sim.run();
  EXPECT_EQ(manager.spin_downs(), 0u);
  EXPECT_EQ(b.power_state(), HddModel::PowerState::kActive);
}

TEST(SpinDownManager, ScheduleKeepsCheckAtExactWindowEnd) {
  // 0.7 / 0.1 == 6.999... in binary floating point; a bare floor drops the
  // evaluation at t_end and a disk that crosses the idle threshold exactly
  // there is never spun down.
  sim::Simulator sim;
  HddParams hdd_params;
  HddModel disk(sim, hdd_params, 0);
  SpinDownPolicyParams params;
  params.idle_timeout = 0.65;
  params.check_period = 0.1;
  SpinDownManager manager(sim, {&disk}, params);
  manager.schedule(0.0, 0.7);
  sim.run();
  EXPECT_EQ(manager.spin_downs(), 1u);
  EXPECT_EQ(disk.power_state(), HddModel::PowerState::kStandby);
}

TEST(SpinDownManager, BusyDisksAreNotSpunDown) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  SpinDownPolicyParams params;
  params.idle_timeout = 1.0;
  SpinDownManager manager(sim, array.hdd_disks(), params);
  // Keep the array continuously busy with sequential reads.
  CallbackSink done;
  std::function<void(int)> issue = [&](int i) {
    if (i >= 400) return;
    array.submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 256, 128 * kKiB,
                           OpType::kRead},
                 done.bind([&issue, i](const IoCompletion&) { issue(i + 1); }));
  };
  issue(0);
  manager.schedule(0.0, 1.0);
  sim.run_until(1.0);
  // The serving disk(s) stayed up; at most the untouched ones spun down.
  EXPECT_GE(manager.active_disks(), 1u);
}

TEST(SpinDownManager, EnergySavingsVsLatencyTradeoff) {
  // The headline behaviour TRACER is meant to expose (§II Table I): a
  // spin-down policy saves energy on a cold workload at the cost of
  // spin-up stalls.
  auto run = [](bool enable_policy, Joules& energy, double& avg_latency) {
    sim::Simulator sim;
    DiskArray array(sim, ArrayConfig::hdd_testbed(6));
    SpinDownPolicyParams params;
    params.idle_timeout = 4.0;
    SpinDownManager manager(sim, array.hdd_disks(), params);
    if (enable_policy) manager.schedule(0.0, 300.0);
    double total_latency = 0.0;
    int completions = 0;
    CallbackSink done;
    util::Rng rng(5);
    const Sector span = array.capacity() / kSectorSize - 256;
    // One random request every ~30 s: archival coldness.
    for (int i = 0; i < 10; ++i) {
      const Seconds at = 30.0 * (i + 1);
      const Sector sector = rng.below(span / 8) * 8;
      sim.schedule_at(at, [&, sector] {
        array.submit(IoRequest{1, sector, 65536, OpType::kRead},
                     done.bind([&](const IoCompletion& c) {
                       total_latency += c.latency();
                       ++completions;
                     }));
      });
    }
    sim.run();
    energy = array.energy_until(330.0);
    avg_latency = completions ? total_latency / completions : 0.0;
  };
  Joules baseline_energy, policy_energy;
  double baseline_latency, policy_latency;
  run(false, baseline_energy, baseline_latency);
  run(true, policy_energy, policy_latency);
  EXPECT_LT(policy_energy, baseline_energy * 0.8);  // >20 % saved
  EXPECT_GT(policy_latency, baseline_latency);      // but slower
}

}  // namespace
}  // namespace tracer::storage
