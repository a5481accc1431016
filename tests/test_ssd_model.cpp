#include "storage/ssd_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "storage/callback_sink.h"

namespace tracer::storage {
namespace {

struct Fixture {
  sim::Simulator sim;
  SsdParams params;
  std::vector<IoCompletion> completions;
  CallbackSink done;  ///< routes collect()'s closures

  std::unique_ptr<SsdModel> make(std::uint64_t seed = 1) {
    return std::make_unique<SsdModel>(sim, params, seed);
  }

  CompletionCallback collect() {
    return done.bind(
        [this](const IoCompletion& c) { completions.push_back(c); });
  }
};

TEST(SsdModel, RejectsBadConfig) {
  sim::Simulator sim;
  SsdParams params;
  params.channels = 0;
  EXPECT_THROW(SsdModel(sim, params, 1), std::invalid_argument);
}

TEST(SsdModel, CompletesARequest) {
  Fixture f;
  auto ssd = f.make();
  ssd->submit(IoRequest{3, 0, 4096, OpType::kRead}, f.collect());
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.completions[0].id, 3u);
  EXPECT_EQ(ssd->completed_requests(), 1u);
}

TEST(SsdModel, NoMechanicalRandomPenaltyOnReads) {
  // Random 4 KB reads on the SSD cost only ~10 % more than sequential —
  // the §VI-G contrast with the HDD's multi-millisecond seeks.
  auto run = [](bool random) {
    Fixture f;
    auto ssd = f.make();
    util::Rng rng(2);
    Sector at = 0;
    for (int i = 0; i < 100; ++i) {
      const Sector sector = random ? rng.below(50000000) * 8 : at;
      ssd->submit(IoRequest{static_cast<std::uint64_t>(i), sector, 4096,
                            OpType::kRead},
                  f.collect());
      at += 8;
    }
    return f.sim.run();
  };
  const Seconds sequential = run(false);
  const Seconds random = run(true);
  EXPECT_LT(random, sequential * 1.25);
}

TEST(SsdModel, RandomWritesPayAmplification) {
  auto run = [](bool random) {
    Fixture f;
    auto ssd = f.make();
    util::Rng rng(3);
    Sector at = 0;
    for (int i = 0; i < 100; ++i) {
      const Sector sector = random ? rng.below(50000000) * 8 : at;
      ssd->submit(IoRequest{static_cast<std::uint64_t>(i), sector, 4096,
                            OpType::kWrite},
                  f.collect());
      at += 8;
    }
    return f.sim.run();
  };
  const Seconds sequential = run(false);
  const Seconds random = run(true);
  EXPECT_GT(random, sequential * 1.5);
}

TEST(SsdModel, SmallRequestsRunConcurrentlyAcrossChannels) {
  // 4 small requests (1 channel each) finish together; a single channel
  // would serialise them to ~4x the latency.
  Fixture f;
  auto ssd = f.make();
  for (int i = 0; i < 4; ++i) {
    ssd->submit(IoRequest{static_cast<std::uint64_t>(i),
                          static_cast<Sector>(i) * 1000000, 16384,
                          OpType::kRead},
                f.collect());
  }
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 4u);
  const Seconds first = f.completions.front().finish_time;
  const Seconds last = f.completions.back().finish_time;
  EXPECT_NEAR(first, last, first * 0.3);
}

TEST(SsdModel, LargeRequestStripesAcrossChannels) {
  // One 128 KB request must reach ~full device rate, not per-channel rate.
  Fixture f;
  auto ssd = f.make();
  ssd->submit(IoRequest{1, 0, 128 * 1024, OpType::kRead}, f.collect());
  f.sim.run();
  const double rate =
      128.0 * 1024 / f.completions[0].latency() / 1e6;  // MB/s
  EXPECT_GT(rate, f.params.read_rate_mbps * 0.8);
}

TEST(SsdModel, AggregateBandwidthConservedUnderConcurrency) {
  // Many concurrent small sequential reads cannot exceed the device rate.
  Fixture f;
  auto ssd = f.make();
  const int count = 512;
  Sector at = 0;
  for (int i = 0; i < count; ++i) {
    ssd->submit(IoRequest{static_cast<std::uint64_t>(i), at, 32768,
                          OpType::kRead},
                f.collect());
    at += 64;
  }
  const Seconds end = f.sim.run();
  const double mbps = count * 32768.0 / end / 1e6;
  EXPECT_LT(mbps, f.params.read_rate_mbps * 1.05);
  EXPECT_GT(mbps, f.params.read_rate_mbps * 0.5);
}

TEST(SsdModel, IdlePowerMatchesParameter) {
  Fixture f;
  auto ssd = f.make();
  EXPECT_DOUBLE_EQ(ssd->power_at(0.0), 3.5);
  EXPECT_DOUBLE_EQ(ssd->energy_until(4.0), 14.0);
}

TEST(SsdModel, WriteEnergyAboveReadEnergy) {
  auto run = [](OpType op) {
    Fixture f;
    auto ssd = f.make();
    Sector at = 0;
    for (int i = 0; i < 100; ++i) {
      ssd->submit(IoRequest{static_cast<std::uint64_t>(i), at, 131072, op},
                  f.collect());
      at += 256;
    }
    const Seconds end = f.sim.run();
    return ssd->energy_until(end) - f.params.idle_watts * end;
  };
  EXPECT_GT(run(OpType::kWrite), run(OpType::kRead));
}

TEST(SsdModel, OutstandingTracksQueueAndActive) {
  Fixture f;
  auto ssd = f.make();
  for (int i = 0; i < 10; ++i) {
    ssd->submit(IoRequest{static_cast<std::uint64_t>(i), 0, 4096,
                          OpType::kRead},
                f.collect());
  }
  EXPECT_EQ(ssd->outstanding(), 10u);
  f.sim.run();
  EXPECT_EQ(ssd->outstanding(), 0u);
}

}  // namespace
}  // namespace tracer::storage
