#include "storage/hdd_model.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "storage/callback_sink.h"

namespace tracer::storage {
namespace {

struct Fixture {
  sim::Simulator sim;
  HddParams params;
  std::vector<IoCompletion> completions;
  CallbackSink done;  ///< routes collect()'s closures

  std::unique_ptr<HddModel> make(std::uint64_t seed = 1) {
    return std::make_unique<HddModel>(sim, params, seed);
  }

  CompletionCallback collect() {
    return done.bind(
        [this](const IoCompletion& c) { completions.push_back(c); });
  }
};

TEST(HddModel, RejectsBadConfig) {
  sim::Simulator sim;
  HddParams params;
  params.cylinders = 0;
  EXPECT_THROW(HddModel(sim, params, 1), std::invalid_argument);
}

TEST(HddModel, RejectsZeroByteRequest) {
  Fixture f;
  auto hdd = f.make();
  EXPECT_THROW(hdd->submit(IoRequest{1, 0, 0, OpType::kRead}, f.collect()),
               std::invalid_argument);
}

TEST(HddModel, CompletesARequest) {
  Fixture f;
  auto hdd = f.make();
  hdd->submit(IoRequest{7, 1000, 4096, OpType::kRead}, f.collect());
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.completions[0].id, 7u);
  EXPECT_EQ(f.completions[0].bytes, 4096u);
  EXPECT_GT(f.completions[0].latency(), 0.0);
  EXPECT_EQ(hdd->completed_requests(), 1u);
  EXPECT_EQ(hdd->outstanding(), 0u);
}

TEST(HddModel, SequentialFollowOnSkipsSeekAndRotation) {
  Fixture f;
  auto hdd = f.make();
  // First request positions the head; second continues exactly after it.
  hdd->submit(IoRequest{1, 0, 64 * 1024, OpType::kRead}, f.collect());
  f.sim.run();
  const Seconds first_latency = f.completions[0].latency();
  hdd->submit(IoRequest{2, 128, 64 * 1024, OpType::kRead}, f.collect());
  f.sim.run();
  const Seconds second_latency = f.completions[1].latency();
  EXPECT_EQ(hdd->sequential_hits(), 1u);
  // Sequential service = overhead + transfer only; far below seek+rotation.
  EXPECT_LT(second_latency, first_latency);
  EXPECT_LT(second_latency, 2e-3);
}

TEST(HddModel, SequentialThroughputNearMediaRate) {
  Fixture f;
  auto hdd = f.make();
  const Bytes chunk = 1024 * 1024;
  const int count = 64;
  Sector at = 0;
  for (int i = 0; i < count; ++i) {
    hdd->submit(IoRequest{static_cast<std::uint64_t>(i), at, chunk,
                          OpType::kRead},
                f.collect());
    at += chunk / kSectorSize;
  }
  f.sim.run();
  const Seconds elapsed = f.completions.back().finish_time;
  const double mbps = count * chunk / elapsed / 1e6;
  // Outer-zone rate is 125 MB/s; allow the initial seek + overheads.
  EXPECT_GT(mbps, 95.0);
  EXPECT_LT(mbps, 126.0);
}

TEST(HddModel, RandomRequestsPaySeekAndRotation) {
  Fixture f;
  auto hdd = f.make();
  util::Rng rng(3);
  const int count = 200;
  for (int i = 0; i < count; ++i) {
    const Sector sector = rng.below(900000000) * 1;
    hdd->submit(IoRequest{static_cast<std::uint64_t>(i), sector, 4096,
                          OpType::kRead},
                f.collect());
  }
  f.sim.run();
  double sum_latency = 0.0;
  for (const auto& c : f.completions) sum_latency += c.latency();
  // Queueing inflates latency; the service component alone averages
  // ~ seek(avg) + rotation(avg) + transfer > 5 ms.
  const Seconds elapsed = f.completions.back().finish_time;
  const double per_request = elapsed / count;
  EXPECT_GT(per_request, 5e-3);
  EXPECT_LT(per_request, 25e-3);
  EXPECT_EQ(hdd->sequential_hits(), 0u);
}

TEST(HddModel, InnerZoneSlowerThanOuter) {
  Fixture outer;
  auto hdd_outer = outer.make();
  hdd_outer->submit(IoRequest{1, 0, 1024 * 1024, OpType::kRead},
                    outer.collect());
  outer.sim.run();

  Fixture inner;
  auto hdd_inner = inner.make();
  const Sector last = (inner.params.capacity - 2 * 1024 * 1024) / kSectorSize;
  hdd_inner->submit(IoRequest{1, last, 1024 * 1024, OpType::kRead},
                    inner.collect());
  inner.sim.run();

  // Strip seek/rotation noise by comparing a second, sequential request.
  hdd_outer->submit(IoRequest{2, 2048, 1024 * 1024, OpType::kRead},
                    outer.collect());
  outer.sim.run();
  hdd_inner->submit(IoRequest{2, last + 2048, 1024 * 1024, OpType::kRead},
                    inner.collect());
  inner.sim.run();
  EXPECT_GT(inner.completions[1].latency(),
            outer.completions[1].latency() * 1.5);
}

TEST(HddModel, IdlePowerWhenQuiescent) {
  Fixture f;
  auto hdd = f.make();
  EXPECT_DOUBLE_EQ(hdd->power_at(0.0), f.params.idle_watts);
  EXPECT_DOUBLE_EQ(hdd->energy_until(10.0), f.params.idle_watts * 10.0);
}

TEST(HddModel, ActiveEnergyExceedsIdle) {
  Fixture f;
  auto hdd = f.make();
  util::Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    hdd->submit(IoRequest{static_cast<std::uint64_t>(i),
                          rng.below(900000000), 65536, OpType::kWrite},
                f.collect());
  }
  const Seconds end = f.sim.run();
  const Joules energy = hdd->energy_until(end);
  EXPECT_GT(energy, f.params.idle_watts * end * 1.05);
  EXPECT_GT(hdd->busy_time(), 0.0);
}

TEST(HddModel, WritesDrawMoreTransferPowerThanReads) {
  auto run = [](OpType op) {
    Fixture f;
    auto hdd = f.make();
    Sector at = 0;
    for (int i = 0; i < 50; ++i) {
      hdd->submit(IoRequest{static_cast<std::uint64_t>(i), at, 1024 * 1024,
                            op},
                  f.collect());
      at += 2048;
    }
    const Seconds end = f.sim.run();
    return hdd->energy_until(end) / end;  // average watts
  };
  EXPECT_GT(run(OpType::kWrite), run(OpType::kRead));
}

TEST(HddModel, FifoPreservesCompletionOrder) {
  Fixture f;
  auto hdd = f.make();
  util::Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    hdd->submit(IoRequest{static_cast<std::uint64_t>(i),
                          rng.below(900000000), 4096, OpType::kRead},
                f.collect());
  }
  f.sim.run();
  for (std::size_t i = 0; i < f.completions.size(); ++i) {
    EXPECT_EQ(f.completions[i].id, i);
  }
}

TEST(HddModel, BacklogThatNeverDrainsServesEveryRequestOnce) {
  // Each completion submits a new request, so the queue stays ~100 deep
  // for 400 services: its storage grows while requests wait, then wraps
  // around many times. FIFO must keep arrival order throughout.
  Fixture f;
  auto hdd = f.make(3);
  util::Rng rng(8);
  constexpr std::uint64_t kDepth = 100, kTotal = 400;
  std::uint64_t next_id = 0;
  std::function<void(const IoCompletion&)> on_done =
      [&](const IoCompletion& c) {
        f.completions.push_back(c);
        if (next_id < kTotal) {
          hdd->submit(IoRequest{next_id++, rng.below(900000000), 4096,
                                OpType::kRead},
                      f.done.bind(on_done));
        }
      };
  while (next_id < kDepth) {
    hdd->submit(IoRequest{next_id++, rng.below(900000000), 4096,
                          OpType::kRead},
                f.done.bind(on_done));
  }
  f.sim.run();
  EXPECT_EQ(hdd->outstanding(), 0u);
  ASSERT_EQ(f.completions.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(f.completions[i].id, i);
  }
}

TEST(HddModel, DeterministicAcrossRuns) {
  auto run = [] {
    Fixture f;
    auto hdd = f.make(11);
    util::Rng rng(7);
    for (int i = 0; i < 32; ++i) {
      hdd->submit(IoRequest{static_cast<std::uint64_t>(i),
                            rng.below(100000000), 8192, OpType::kRead},
                  f.collect());
    }
    f.sim.run();
    return f.completions.back().finish_time;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace tracer::storage
