#include "storage/rebuild.h"

#include <gtest/gtest.h>

#include "storage/callback_sink.h"
#include "storage/disk_array.h"

namespace tracer::storage {
namespace {

struct Fixture {
  sim::Simulator sim;
  std::unique_ptr<DiskArray> array;

  explicit Fixture(std::size_t disks = 4) {
    ArrayConfig config = ArrayConfig::hdd_testbed(disks);
    array = std::make_unique<DiskArray>(sim, config);
  }

  RaidController& controller() { return array->controller(); }
};

TEST(RebuildProcess, RequiresDegradedController) {
  Fixture f;
  EXPECT_THROW(RebuildProcess(f.sim, f.controller(), RebuildParams{}),
               std::logic_error);
}

TEST(RebuildProcess, ValidatesParameters) {
  Fixture f;
  f.controller().fail_disk(1);
  RebuildParams bad_chunk;
  bad_chunk.chunk = 1000;  // not a stripe-unit multiple
  EXPECT_THROW(RebuildProcess(f.sim, f.controller(), bad_chunk),
               std::invalid_argument);
  RebuildParams bad_rate;
  bad_rate.throttle_mbps = 0.0;
  EXPECT_THROW(RebuildProcess(f.sim, f.controller(), bad_rate),
               std::invalid_argument);
}

TEST(RebuildProcess, RestoresControllerOnCompletion) {
  Fixture f;
  f.controller().fail_disk(2);
  RebuildParams params;
  params.chunk = kMiB;
  params.throttle_mbps = 1000.0;  // effectively unthrottled
  params.limit_bytes = 32 * kMiB;
  bool completed = false;
  RebuildProcess rebuild(f.sim, f.controller(), params,
                         [&completed] { completed = true; });
  EXPECT_DOUBLE_EQ(rebuild.progress(), 0.0);
  rebuild.start();
  EXPECT_TRUE(rebuild.running());
  f.sim.run();
  EXPECT_TRUE(completed);
  EXPECT_TRUE(rebuild.complete());
  EXPECT_FALSE(rebuild.running());
  EXPECT_DOUBLE_EQ(rebuild.progress(), 1.0);
  EXPECT_EQ(rebuild.rebuilt_bytes(), 32 * kMiB);
  EXPECT_FALSE(f.controller().degraded());
}

TEST(RebuildProcess, ThrottleBoundsRebuildRate) {
  auto run = [](double mbps) {
    Fixture f;
    f.controller().fail_disk(0);
    RebuildParams params;
    params.chunk = kMiB;
    params.throttle_mbps = mbps;
    params.limit_bytes = 16 * kMiB;
    RebuildProcess rebuild(f.sim, f.controller(), params);
    rebuild.start();
    f.sim.run();
    return rebuild.elapsed();
  };
  const Seconds slow = run(5.0);
  const Seconds fast = run(50.0);
  // 16 MiB at 5 MB/s >= ~3.3 s; at 50 MB/s the media rate dominates.
  EXPECT_GE(slow, 16.0 * 1048576 / (5.0 * 1e6) * 0.95);
  EXPECT_LT(fast, slow / 3.0);
}

TEST(RebuildProcess, CannotStartTwice) {
  Fixture f;
  f.controller().fail_disk(1);
  RebuildParams params;
  params.limit_bytes = kMiB;
  RebuildProcess rebuild(f.sim, f.controller(), params);
  rebuild.start();
  EXPECT_THROW(rebuild.start(), std::logic_error);
  f.sim.run();
  EXPECT_THROW(rebuild.start(), std::logic_error);
}

TEST(RebuildProcess, ForegroundIoSlowsDuringRebuild) {
  // Foreground random reads contend with rebuild traffic on the member
  // queues: average latency during an aggressive rebuild must exceed the
  // quiescent baseline.
  auto run = [](bool with_rebuild) {
    Fixture f;
    f.controller().fail_disk(1);
    RebuildParams params;
    params.chunk = kMiB;
    params.throttle_mbps = 500.0;  // aggressive
    params.limit_bytes = 64 * kMiB;
    RebuildProcess rebuild(f.sim, f.controller(), params);
    if (with_rebuild) rebuild.start();

    util::Rng rng(17);
    double total_latency = 0.0;
    int completions = 0;
    CallbackSink done;
    const Sector span = f.array->capacity() / kSectorSize - 256;
    for (int i = 0; i < 40; ++i) {
      const Seconds at = 0.01 * (i + 1);
      const Sector sector = rng.below(span / 8) * 8;
      f.sim.schedule_at(at, [&, sector] {
        f.array->submit(IoRequest{1, sector, 16 * kKiB, OpType::kRead},
                        done.bind([&](const IoCompletion& c) {
                          total_latency += c.latency();
                          ++completions;
                        }));
      });
    }
    f.sim.run();
    EXPECT_EQ(completions, 40);
    return total_latency / completions;
  };
  EXPECT_GT(run(true), run(false) * 1.2);
}

TEST(RebuildProcess, FullDiskRebuildOnSmallGeometry) {
  // Exercise the no-limit path on a deliberately tiny geometry.
  sim::Simulator sim;
  std::vector<std::unique_ptr<HddModel>> disks;
  std::vector<BlockDevice*> raw;
  HddParams hdd;
  hdd.capacity = 16 * kMiB;
  hdd.cylinders = 64;
  for (int i = 0; i < 3; ++i) {
    disks.push_back(std::make_unique<HddModel>(sim, hdd, i + 1));
    raw.push_back(disks.back().get());
  }
  RaidGeometry geometry(RaidLevel::kRaid5, 3, 128 * kKiB, hdd.capacity);
  RaidController controller(sim, geometry, std::move(raw));
  controller.fail_disk(0);
  RebuildParams params;
  params.throttle_mbps = 1000.0;
  RebuildProcess rebuild(sim, controller, params);
  rebuild.start();
  sim.run();
  EXPECT_TRUE(rebuild.complete());
  EXPECT_EQ(rebuild.rebuilt_bytes(), geometry.rows() * geometry.stripe_unit);
  EXPECT_FALSE(controller.degraded());
}

}  // namespace
}  // namespace tracer::storage
