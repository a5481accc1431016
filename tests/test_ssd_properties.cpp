// Parameterized property sweeps for the SSD model: bandwidth conservation
// and latency sanity must hold across channel counts and striping granules.
#include <gtest/gtest.h>

#include "storage/callback_sink.h"
#include "storage/ssd_model.h"
#include "util/rng.h"

namespace tracer::storage {
namespace {

using SsdParam = std::tuple<std::size_t, Bytes>;  // (channels, stripe)

class SsdModelProperty : public ::testing::TestWithParam<SsdParam> {
 protected:
  SsdParams params() const {
    SsdParams p;
    p.channels = std::get<0>(GetParam());
    p.internal_stripe = std::get<1>(GetParam());
    return p;
  }
};

TEST_P(SsdModelProperty, SequentialReadBandwidthConserved) {
  // Pumping many sequential reads of any size never exceeds the device
  // rate and, with enough concurrency, approaches it.
  sim::Simulator sim;
  SsdModel ssd(sim, params(), 1);
  const Bytes request = 64 * kKiB;
  const int count = 256;
  Sector at = 0;
  int completions = 0;
  CallbackSink done;
  for (int i = 0; i < count; ++i) {
    ssd.submit(IoRequest{static_cast<std::uint64_t>(i), at, request,
                         OpType::kRead},
               done.bind([&completions](const IoCompletion&) {
                 ++completions;
               }));
    at += request / kSectorSize;
  }
  const Seconds end = sim.run();
  ASSERT_EQ(completions, count);
  const double mbps = count * static_cast<double>(request) / end / 1e6;
  EXPECT_LE(mbps, params().read_rate_mbps * 1.05);
  EXPECT_GE(mbps, params().read_rate_mbps * 0.5);
}

TEST_P(SsdModelProperty, SingleLargeRequestUsesInternalStriping) {
  sim::Simulator sim;
  SsdModel ssd(sim, params(), 1);
  // 8 full widths, so the fixed command overhead amortises away.
  const Bytes big = params().internal_stripe * params().channels * 8;
  Seconds latency = 0.0;
  CallbackSink done;
  ssd.submit(IoRequest{1, 0, big, OpType::kRead},
             done.bind([&latency](const IoCompletion& c) {
               latency = c.latency();
             }));
  sim.run();
  const double rate = static_cast<double>(big) / latency / 1e6;
  // Full-width request reaches (nearly) the aggregate device rate.
  EXPECT_GT(rate, params().read_rate_mbps * 0.7);
}

TEST_P(SsdModelProperty, LatencyMonotoneInRequestSize) {
  auto latency_of = [this](Bytes bytes) {
    sim::Simulator sim;
    SsdModel ssd(sim, params(), 1);
    Seconds latency = 0.0;
    CallbackSink done;
    ssd.submit(IoRequest{1, 0, bytes, OpType::kRead},
               done.bind([&latency](const IoCompletion& c) {
                 latency = c.latency();
               }));
    sim.run();
    return latency;
  };
  Seconds previous = 0.0;
  for (Bytes bytes = 4 * kKiB; bytes <= 2 * kMiB; bytes *= 4) {
    const Seconds latency = latency_of(bytes);
    EXPECT_GE(latency, previous * 0.999) << bytes;
    previous = latency;
  }
}

TEST_P(SsdModelProperty, EnergyConsistentWithPowerEnvelope) {
  sim::Simulator sim;
  SsdModel ssd(sim, params(), 1);
  util::Rng rng(4);
  CallbackSink done;
  for (int i = 0; i < 200; ++i) {
    ssd.submit(IoRequest{static_cast<std::uint64_t>(i),
                         rng.below(1 << 20) * 8, 16 * kKiB,
                         rng.chance(0.5) ? OpType::kRead : OpType::kWrite},
               done.bind([](const IoCompletion&) {}));
  }
  const Seconds end = sim.run();
  const Joules energy = ssd.energy_until(end);
  const SsdParams p = params();
  const Watts max_active =
      p.idle_watts + std::max(p.read_extra_watts, p.write_extra_watts);
  EXPECT_GE(energy, p.idle_watts * end * 0.999);
  EXPECT_LE(energy, max_active * end * 1.001);
}

INSTANTIATE_TEST_SUITE_P(
    ChannelsAndStripes, SsdModelProperty,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(16 * kKiB, 32 * kKiB, 128 * kKiB)),
    [](const ::testing::TestParamInfo<SsdParam>& param_info) {
      return "c" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param) / kKiB) + "K";
    });

}  // namespace
}  // namespace tracer::storage
