#include "storage/disk_array.h"

#include <gtest/gtest.h>

#include "storage/callback_sink.h"

namespace tracer::storage {
namespace {

TEST(DiskArray, HddTestbedPreset) {
  const ArrayConfig config = ArrayConfig::hdd_testbed(6);
  EXPECT_EQ(config.disk_count, 6u);
  EXPECT_EQ(config.kind, DiskKind::kHdd);
  EXPECT_EQ(config.level, RaidLevel::kRaid5);
  EXPECT_EQ(config.stripe_unit, 128 * kKiB);
  EXPECT_EQ(config.name, "raid5-hdd6");
}

TEST(DiskArray, SsdTestbedIdlePowerIs195_8W) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::ssd_testbed(4));
  EXPECT_NEAR(array.power_at(0.0), 195.8, 1e-9);
}

TEST(DiskArray, IdlePowerLinearInDiskCount) {
  std::vector<double> watts;
  for (std::size_t disks = 0; disks <= 6; ++disks) {
    sim::Simulator sim;
    DiskArray array(sim, ArrayConfig::hdd_testbed(disks));
    watts.push_back(array.power_at(0.0));
  }
  const double per_disk = watts[1] - watts[0];
  EXPECT_GT(per_disk, 0.0);
  for (std::size_t i = 1; i + 1 < watts.size(); ++i) {
    EXPECT_NEAR(watts[i + 1] - watts[i], per_disk, 1e-9);
  }
  // Fig 7: beyond three disks, disk power exceeds the non-disk base.
  EXPECT_GT(watts[4] - watts[0], watts[0]);
}

TEST(DiskArray, ZeroDiskEnclosureIsPowerOnlyDevice) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(0));
  EXPECT_NEAR(array.power_at(0.0), 30.0, 1e-9);
  CallbackSink done;
  EXPECT_THROW(array.submit(IoRequest{1, 0, 4096, OpType::kRead},
                            done.bind([](const IoCompletion&) {})),
               std::logic_error);
}

TEST(DiskArray, CapacityReflectsRaid5Overhead) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  // 5/6 of the raw capacity, rounded to whole stripe rows.
  const Bytes per_disk = HddParams{}.capacity;
  EXPECT_NEAR(static_cast<double>(array.capacity()),
              static_cast<double>(per_disk) * 5.0,
              static_cast<double>(128 * kKiB * 6));
}

TEST(DiskArray, ServesIoEndToEnd) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  std::vector<IoCompletion> completions;
  CallbackSink done;
  for (int i = 0; i < 8; ++i) {
    array.submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 4096, 16 * kKiB,
                           OpType::kRead},
                 done.bind([&](const IoCompletion& c) {
                   completions.push_back(c);
                 }));
  }
  sim.run();
  EXPECT_EQ(completions.size(), 8u);
  EXPECT_EQ(array.outstanding(), 0u);
}

TEST(DiskArray, RejectsRequestsBeyondCapacityWithoutOverflow) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  int completed = 0;
  auto count = [&completed](const IoCompletion&) { ++completed; };
  CallbackSink done;
  // 2^56 sectors is 2^65 bytes: a byte offset computed as sector * 512
  // wraps to 0 and would pass a naive range check.
  EXPECT_THROW(array.submit(IoRequest{1, Sector{1} << 56, 4 * kKiB,
                                      OpType::kRead},
                            done.bind(count)),
               std::out_of_range);
  EXPECT_THROW(array.submit(IoRequest{2, ~Sector{0}, kSectorSize,
                                      OpType::kWrite},
                            done.bind(count)),
               std::out_of_range);
  // The last sectors of the array are valid; one byte more is not.
  const Sector end = array.capacity() / kSectorSize;
  EXPECT_THROW(array.submit(IoRequest{3, end - 8, 8 * kSectorSize + 1,
                                      OpType::kRead},
                            done.bind(count)),
               std::out_of_range);
  array.submit(IoRequest{4, end - 8, 8 * kSectorSize, OpType::kRead},
               done.bind(count));
  sim.run();
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(array.outstanding(), 0u);
}

TEST(DiskArray, ActiveEnergyAboveIdle) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  util::Rng rng(3);
  CallbackSink done;
  for (int i = 0; i < 200; ++i) {
    array.submit(IoRequest{static_cast<std::uint64_t>(i),
                           rng.below(array.capacity() / kSectorSize - 64) /
                               8 * 8,
                           16 * kKiB, OpType::kWrite},
                 done.bind([](const IoCompletion&) {}));
  }
  const Seconds end = sim.run();
  const Joules energy = array.energy_until(end);
  const Joules idle_energy = array.power_at(end) > 0.0
                                 ? (30.0 + 6 * HddParams{}.idle_watts) * end
                                 : 0.0;
  EXPECT_GT(energy, idle_energy);
}

TEST(DiskArray, TwoDiskConfigFallsBackToRaid0) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(2));
  EXPECT_EQ(array.controller().geometry().level, RaidLevel::kRaid0);
  EXPECT_EQ(array.disk_count(), 2u);
}

TEST(DiskArray, SeedsGiveIndependentButDeterministicDisks) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    ArrayConfig config = ArrayConfig::hdd_testbed(6);
    config.seed = seed;
    DiskArray array(sim, config);
    Seconds finish = 0.0;
    CallbackSink done;
    array.submit(IoRequest{1, 99999, 4096, OpType::kRead},
                 done.bind([&](const IoCompletion& c) {
                   finish = c.finish_time;
                 }));
    sim.run();
    return finish;
  };
  EXPECT_DOUBLE_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));  // different rotational samples
}

}  // namespace
}  // namespace tracer::storage
