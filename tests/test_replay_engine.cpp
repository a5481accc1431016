#include "core/replay_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/interarrival_scaler.h"
#include "core/proportional_filter.h"
#include "mixed_trace.h"
#include "storage/cache_tier.h"
#include "storage/disk_array.h"
#include "util/rng.h"

namespace tracer::core {
namespace {

trace::Trace synthetic_trace(std::size_t bunches, Bytes request_size,
                             double read_ratio, Seconds gap,
                             std::uint64_t seed = 1) {
  util::Rng rng(seed);
  trace::Trace trace;
  trace.device = "dev";
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * gap;
    trace::IoPackage pkg;
    pkg.sector = rng.below(1ULL << 30) * 8;
    pkg.bytes = request_size;
    pkg.op = rng.chance(read_ratio) ? OpType::kRead : OpType::kWrite;
    bunch.packages.push_back(pkg);
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

ReplayReport replay_on_hdd(const trace::TraceSource& source,
                           ReplayOptions options = ReplayOptions{}) {
  ReplayEngine engine(options);
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  return engine.replay(source, array);
}

TEST(ReplayEngine, RejectsEmptyTraceAndBadOptions) {
  ReplayOptions bad;
  bad.sampling_cycle = 0.0;
  EXPECT_THROW(ReplayEngine{bad}, std::invalid_argument);
  ReplayEngine engine;
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  EXPECT_THROW(engine.replay(trace::TraceView::owning({}), array),
               std::invalid_argument);
}

TEST(ReplayEngine, ReplaysEveryPackage) {
  const trace::Trace trace = synthetic_trace(200, 4096, 0.5, 0.01);
  const ReplayReport report = replay_on_hdd(trace::TraceView::borrowed(trace));
  EXPECT_EQ(report.bunches_replayed, 200u);
  EXPECT_EQ(report.packages_replayed, 200u);
  EXPECT_EQ(report.perf.completions, 200u);
}

TEST(ReplayEngine, RatesUseTraceWindow) {
  // 100 bunches over ~5 s with slow random service: IOPS must be computed
  // against the trace window, not the drain-inflated end time.
  const trace::Trace trace = synthetic_trace(100, 4096, 1.0, 0.05);
  const ReplayReport report = replay_on_hdd(trace::TraceView::borrowed(trace));
  EXPECT_NEAR(report.perf.iops, 100.0 / trace.duration(), 0.5);
  EXPECT_GE(report.replay_duration, trace.duration());
}

TEST(ReplayEngine, WarmupPrefixExcludedFromMetrics) {
  const trace::Trace trace = synthetic_trace(200, 4096, 0.5, 0.01);  // ~2 s
  ReplayOptions warm;
  warm.warmup_window = 0.5;
  const ReplayReport report =
      replay_on_hdd(trace::TraceView::borrowed(trace), warm);
  EXPECT_GT(report.warmup_bunches, 0u);
  EXPECT_EQ(report.warmup_bunches, report.warmup_packages);  // 1 pkg/bunch
  EXPECT_EQ(report.bunches_replayed + report.warmup_bunches, 200u);
  // Every measured submission completes (the sim drains); warm-up
  // completions never reach the monitor.
  EXPECT_EQ(report.perf.completions, report.packages_replayed);

  const ReplayReport cold = replay_on_hdd(trace::TraceView::borrowed(trace));
  EXPECT_EQ(cold.warmup_bunches, 0u);
  EXPECT_LT(report.perf.completions, cold.perf.completions);
  // The power window opens at the warm-up boundary, so measured energy
  // covers a strictly shorter interval.
  EXPECT_LT(report.joules, cold.joules);
}

TEST(ReplayEngine, WarmupMustBeShorterThanReplayedWindow) {
  const trace::Trace trace = synthetic_trace(50, 4096, 0.5, 0.01);  // 0.49 s
  ReplayOptions warm;
  warm.warmup_window = 1.0;
  ReplayEngine engine(warm);
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  EXPECT_THROW(engine.replay(trace::TraceView::borrowed(trace), array),
               std::invalid_argument);

  ReplayOptions negative;
  negative.warmup_window = -0.1;
  EXPECT_THROW(ReplayEngine{negative}, std::invalid_argument);
}

TEST(ReplayEngine, WarmupWarmsDeviceStateBeforeMeasurement) {
  // Re-reading a small hot set through a controller cache: with a warm-up
  // window the measured phase starts with the lines resident, so the mean
  // response collapses to DRAM-hit latency; a cold run pays the misses
  // inside the measured window.
  trace::Trace trace;
  trace.device = "dev";
  for (int b = 0; b < 200; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = 0.01 * b;
    trace::IoPackage pkg;
    pkg.sector = static_cast<Sector>((b % 8) * 128);  // 8-line hot set
    pkg.bytes = 64 * kKiB;
    pkg.op = OpType::kRead;
    bunch.packages.push_back(pkg);
    trace.bunches.push_back(std::move(bunch));
  }
  auto run = [&](Seconds warmup) {
    ReplayOptions options;
    options.warmup_window = warmup;
    ReplayEngine engine(options);
    storage::DiskArray array(engine.simulator(),
                             storage::ArrayConfig::hdd_testbed(6));
    storage::CacheTierParams params;
    params.capacity = 1 * kMiB;  // 16 lines, holds the whole hot set
    storage::CacheTier cache(engine.simulator(), params, array);
    return engine.replay(trace::TraceView::borrowed(trace), cache);
  };
  const ReplayReport cold = run(0.0);
  const ReplayReport warm = run(0.5);
  EXPECT_LT(warm.perf.avg_response_ms, cold.perf.avg_response_ms);
  EXPECT_LT(warm.perf.max_response_ms, cold.perf.max_response_ms);
}

TEST(ReplayEngine, PowerMeteredAboveIdle) {
  const trace::Trace trace = synthetic_trace(2000, 65536, 0.5, 0.002);
  const ReplayReport report = replay_on_hdd(trace::TraceView::borrowed(trace));
  const double idle_watts = 30.0 + 6 * 8.0;
  EXPECT_GT(report.avg_true_watts, idle_watts);
  EXPECT_GT(report.avg_watts, idle_watts * 0.97);
  EXPECT_GT(report.joules, 0.0);
  EXPECT_NEAR(report.avg_volts, 220.0, 3.0);
  EXPECT_NEAR(report.avg_amps * report.avg_volts, report.avg_watts,
              report.avg_watts * 0.02);
}

TEST(ReplayEngine, EfficiencyMetricsConsistent) {
  const trace::Trace trace = synthetic_trace(500, 16384, 0.5, 0.005);
  const ReplayReport report = replay_on_hdd(trace::TraceView::borrowed(trace));
  EXPECT_NEAR(report.efficiency.iops_per_watt,
              report.perf.iops / report.avg_watts, 1e-9);
  EXPECT_NEAR(report.efficiency.mbps_per_kilowatt,
              report.perf.mbps / (report.avg_watts / 1000.0), 1e-9);
}

TEST(ReplayEngine, FilteredReplayScalesThroughputLinearly) {
  const trace::Trace trace = synthetic_trace(5000, 4096, 0.0, 0.002);
  const ReplayReport base = replay_on_hdd(trace::TraceView::borrowed(trace));
  const ReplayReport half =
      replay_on_hdd(*ProportionalFilter::apply(
          trace::make_source(trace::TraceView::borrowed(trace)), 0.5));
  const double measured = half.perf.iops / base.perf.iops;
  EXPECT_NEAR(measured, 0.5, 0.02);
}

// Exact oracle for the Fig 2 inter-arrival scaler: on a trace the array
// serves without a backlog, scaling intensity by k divides the measured
// window by exactly k (x / k is one rounding on both sides), replays every
// package, and never schedules a bunch late.
TEST(ReplayEngine, TimeScaleCompressesReplay) {
  // 300 random reads at 20 per second: 14.95 s, far below saturation.
  const trace::Trace trace = synthetic_trace(300, 4096, 1.0, 0.05);
  const auto source = trace::make_source(trace::TraceView::borrowed(trace));
  const ReplayReport base = replay_on_hdd(*source);
  ASSERT_EQ(base.late_schedules, 0u);
  for (double k : {2.0, 4.0}) {
    const ReplayReport scaled =
        replay_on_hdd(*InterarrivalScaler::scale(source, k));
    EXPECT_EQ(scaled.perf.duration, base.perf.duration / k) << "k=" << k;
    EXPECT_EQ(scaled.packages_replayed, base.packages_replayed) << "k=" << k;
    EXPECT_EQ(scaled.perf.completions, base.perf.completions) << "k=" << k;
    EXPECT_EQ(scaled.late_schedules, 0u) << "k=" << k;
  }
}

TEST(ReplayEngine, WrapsAddressesBeyondCapacity) {
  trace::Trace trace;
  trace.device = "huge";
  trace::Bunch bunch;
  bunch.timestamp = 0.0;
  // A sector far beyond the array (collected on a bigger device).
  bunch.packages.push_back(trace::IoPackage{1ULL << 60, 4096, OpType::kRead});
  trace.bunches.push_back(bunch);
  const ReplayReport report = replay_on_hdd(trace::TraceView::borrowed(trace));
  EXPECT_EQ(report.perf.completions, 1u);
}

TEST(ReplayEngine, ConcurrentPackagesInBunchIssueTogether) {
  // One bunch with 12 concurrent random reads: end-to-end time must be far
  // below 12 sequential service times (parallel across 6 disks).
  trace::Trace trace;
  util::Rng rng(3);
  trace::Bunch bunch;
  bunch.timestamp = 0.0;
  for (int i = 0; i < 12; ++i) {
    bunch.packages.push_back(
        trace::IoPackage{rng.below(1ULL << 30) * 8, 4096, OpType::kRead});
  }
  trace.bunches.push_back(bunch);
  const ReplayReport report = replay_on_hdd(trace::TraceView::borrowed(trace));
  EXPECT_EQ(report.perf.completions, 12u);
  // All 12 issue at t=0, so the slowest response time bounds the drain;
  // parallel service across 6 disks keeps it far below 12 serial services.
  // (replay_duration itself is floored at one sampling cycle.)
  EXPECT_LT(report.perf.max_response_ms, 12 * 15.0);
}

TEST(ReplayEngine, PowerSeriesCoversReplay) {
  const trace::Trace trace = synthetic_trace(600, 4096, 0.5, 0.01);
  ReplayOptions options;
  options.sampling_cycle = 1.0;
  const ReplayReport report =
      replay_on_hdd(trace::TraceView::borrowed(trace), options);
  // ~6 s replay -> >= 6 samples (plus the final partial cycle).
  EXPECT_GE(report.power_series.size(), 6u);
  for (const auto& sample : report.power_series) {
    EXPECT_GT(sample.watts, 0.0);
  }
}

TEST(ReplayEngine, DeterministicAcrossRuns) {
  const trace::Trace trace = synthetic_trace(400, 8192, 0.5, 0.005);
  const ReplayReport a = replay_on_hdd(trace::TraceView::borrowed(trace));
  const ReplayReport b = replay_on_hdd(trace::TraceView::borrowed(trace));
  EXPECT_DOUBLE_EQ(a.perf.iops, b.perf.iops);
  EXPECT_DOUBLE_EQ(a.avg_watts, b.avg_watts);
  EXPECT_DOUBLE_EQ(a.replay_duration, b.replay_duration);
}

TEST(ReplayEngine, SimulatorCapacityStableAcrossReplay) {
  // Steady-state replay must not grow the simulator's event heap or action
  // slots: the reserve() estimate covers the device's worst case.
  const trace::Trace trace = test_support::mixed_trace(300, 43);
  ReplayEngine engine;
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  engine.replay(trace::TraceView::borrowed(trace), array);
  const std::size_t heap_after_first = engine.simulator().heap_capacity();
  const std::size_t slots_after_first = engine.simulator().slot_capacity();
  engine.replay(trace::TraceView::borrowed(trace), array);
  EXPECT_EQ(engine.simulator().heap_capacity(), heap_after_first);
  EXPECT_EQ(engine.simulator().slot_capacity(), slots_after_first);
}

TEST(WrapSector, CanPlaceRequestAtLastValidStartSector) {
  // 100-sector device, 8-sector request: valid starts are [0, 92]
  // inclusive. The old `% usable` folded 92 onto 0.
  const Bytes capacity = 100 * kSectorSize;
  const Bytes bytes = 8 * kSectorSize;
  EXPECT_EQ(wrap_sector(0, bytes, capacity), 0u);
  EXPECT_EQ(wrap_sector(91, bytes, capacity), 91u);
  EXPECT_EQ(wrap_sector(92, bytes, capacity), 92u);
  EXPECT_EQ(wrap_sector(93, bytes, capacity), 0u);  // first folded sector
  EXPECT_EQ(wrap_sector(93 + 92, bytes, capacity), 92u);
}

TEST(WrapSector, RequestExactlyFillingDeviceIsValid) {
  // A request the size of the whole device has exactly one valid start
  // sector (0); the old `<=` guard wrongly rejected it.
  const Bytes capacity = 64 * kSectorSize;
  const Bytes bytes = 64 * kSectorSize;
  EXPECT_EQ(wrap_sector(0, bytes, capacity), 0u);
  EXPECT_EQ(wrap_sector(123456, bytes, capacity), 0u);
}

TEST(WrapSector, RejectsRequestLargerThanDevice) {
  EXPECT_THROW(wrap_sector(0, 65 * kSectorSize, 64 * kSectorSize),
               std::invalid_argument);
}

TEST(WrapSector, SubSectorRequestsRoundUpToOneSector) {
  // 1-byte request occupies one sector; valid starts are [0, 63].
  const Bytes capacity = 64 * kSectorSize;
  EXPECT_EQ(wrap_sector(63, 1, capacity), 63u);
  EXPECT_EQ(wrap_sector(64, 1, capacity), 0u);
}

TEST(WrapSector, ResultAlwaysFitsOnDevice) {
  const Bytes capacity = 1000 * kSectorSize;
  for (Bytes bytes : {Bytes{1}, Bytes{512}, Bytes{4096}, Bytes{65536},
                      Bytes{1000 * 512}}) {
    const Sector request_sectors =
        std::max<Sector>(1, (bytes + kSectorSize - 1) / kSectorSize);
    for (Sector sector = 0; sector < 4096; sector += 7) {
      const Sector wrapped = wrap_sector(sector, bytes, capacity);
      EXPECT_LE(wrapped + request_sectors, capacity / kSectorSize)
          << "sector=" << sector << " bytes=" << bytes;
    }
  }
}

}  // namespace
}  // namespace tracer::core
