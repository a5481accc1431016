#include "workload/synthetic_generator.h"

#include <gtest/gtest.h>

#include "storage/disk_array.h"
#include "trace/trace_stats.h"

namespace tracer::workload {
namespace {

GeneratorResult run_mode(Bytes request_size, double read_ratio,
                         double random_ratio, Seconds duration = 2.0,
                         std::uint64_t seed = 1) {
  sim::Simulator sim;
  storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
  SyntheticParams params;
  params.request_size = request_size;
  params.read_ratio = read_ratio;
  params.random_ratio = random_ratio;
  params.duration = duration;
  params.seed = seed;
  SyntheticGenerator generator(sim, array, params);
  return generator.run();
}

TEST(SyntheticGenerator, RejectsBadParameters) {
  sim::Simulator sim;
  storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
  SyntheticParams params;
  params.request_size = 0;
  EXPECT_THROW(SyntheticGenerator(sim, array, params), std::invalid_argument);
  params = SyntheticParams{};
  params.queue_depth = 0;
  EXPECT_THROW(SyntheticGenerator(sim, array, params), std::invalid_argument);
  params = SyntheticParams{};
  params.working_set = 100;  // smaller than one request
  EXPECT_THROW(SyntheticGenerator(sim, array, params), std::invalid_argument);
}

TEST(SyntheticGenerator, ProducesNonEmptyPeakTrace) {
  const GeneratorResult result = run_mode(16 * kKiB, 0.5, 0.5);
  EXPECT_GT(result.requests, 50u);
  EXPECT_GT(result.trace.bunch_count(), 10u);
  EXPECT_EQ(result.trace.package_count(), result.requests);
  EXPECT_GT(result.achieved_iops, 0.0);
  EXPECT_GT(result.achieved_mbps, 0.0);
}

TEST(SyntheticGenerator, AllRequestsHaveConfiguredSize) {
  const GeneratorResult result = run_mode(4 * kKiB, 0.5, 0.5);
  for (const auto& bunch : result.trace.bunches) {
    for (const auto& pkg : bunch.packages) {
      EXPECT_EQ(pkg.bytes, 4096u);
    }
  }
}

TEST(SyntheticGenerator, ReadRatioIsRespected) {
  const GeneratorResult result = run_mode(16 * kKiB, 0.75, 0.5, 4.0);
  EXPECT_NEAR(result.trace.read_ratio(), 0.75, 0.08);
  const GeneratorResult all_writes = run_mode(16 * kKiB, 0.0, 0.5);
  EXPECT_DOUBLE_EQ(all_writes.trace.read_ratio(), 0.0);
}

TEST(SyntheticGenerator, RandomRatioControlsSequentiality) {
  const auto sequential = run_mode(16 * kKiB, 1.0, 0.0, 1.0);
  const auto random = run_mode(16 * kKiB, 1.0, 1.0, 1.0);
  const auto seq_stats =
      trace::compute_stats(trace::TraceView::borrowed(sequential.trace));
  const auto rnd_stats =
      trace::compute_stats(trace::TraceView::borrowed(random.trace));
  EXPECT_GT(seq_stats.sequential_ratio, 0.9);
  EXPECT_LT(rnd_stats.sequential_ratio, 0.05);
}

TEST(SyntheticGenerator, SequentialFasterThanRandomOnHdd) {
  const auto sequential = run_mode(16 * kKiB, 1.0, 0.0, 1.0);
  const auto random = run_mode(16 * kKiB, 1.0, 1.0, 1.0);
  EXPECT_GT(sequential.achieved_mbps, random.achieved_mbps * 3.0);
}

TEST(SyntheticGenerator, TraceTimesArePeakPaced) {
  // The collected trace's intensity equals the device's achieved rate: no
  // idle gaps are inserted by the closed loop.
  const GeneratorResult result = run_mode(16 * kKiB, 0.5, 0.5, 2.0);
  const auto stats =
      trace::compute_stats(trace::TraceView::borrowed(result.trace));
  EXPECT_NEAR(stats.mean_iops, result.achieved_iops,
              result.achieved_iops * 0.15);
}

TEST(SyntheticGenerator, DeterministicForSeed) {
  const auto a = run_mode(4 * kKiB, 0.5, 0.5, 1.0, 77);
  const auto b = run_mode(4 * kKiB, 0.5, 0.5, 1.0, 77);
  EXPECT_EQ(a.trace, b.trace);
  const auto c = run_mode(4 * kKiB, 0.5, 0.5, 1.0, 78);
  EXPECT_NE(a.trace, c.trace);
}

TEST(SyntheticGenerator, WorkingSetBoundsAddresses) {
  sim::Simulator sim;
  storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
  SyntheticParams params;
  params.request_size = 4 * kKiB;
  params.random_ratio = 1.0;
  params.duration = 1.0;
  params.working_set = 64 * kMiB;
  SyntheticGenerator generator(sim, array, params);
  const GeneratorResult result = generator.run();
  const Sector limit = params.working_set / kSectorSize;
  for (const auto& bunch : result.trace.bunches) {
    for (const auto& pkg : bunch.packages) {
      EXPECT_LT(pkg.sector, limit);
    }
  }
}

TEST(SyntheticGenerator, FromModeCopiesParameters) {
  WorkloadMode mode;
  mode.request_size = 64 * kKiB;
  mode.read_ratio = 0.25;
  mode.random_ratio = 0.75;
  const SyntheticParams params = SyntheticParams::from_mode(mode, 9.0, 123);
  EXPECT_EQ(params.request_size, 64 * kKiB);
  EXPECT_DOUBLE_EQ(params.read_ratio, 0.25);
  EXPECT_DOUBLE_EQ(params.random_ratio, 0.75);
  EXPECT_DOUBLE_EQ(params.duration, 9.0);
  EXPECT_EQ(params.seed, 123u);
}

}  // namespace
}  // namespace tracer::workload
