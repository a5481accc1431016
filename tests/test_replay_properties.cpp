// Parameterized end-to-end property sweeps: load-control linearity and
// energy sanity must hold at every load level and across workload modes,
// on both testbed arrays.
#include <gtest/gtest.h>

#include "core/proportional_filter.h"
#include "core/replay_engine.h"
#include "storage/disk_array.h"
#include "workload/synthetic_generator.h"

namespace tracer::core {
namespace {

// A shared peak trace keeps the sweep cheap: collected once per process.
const trace::Trace& shared_peak_trace() {
  static const trace::Trace trace = [] {
    sim::Simulator sim;
    storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
    workload::SyntheticParams params;
    params.request_size = 16 * kKiB;
    params.read_ratio = 0.5;
    params.random_ratio = 0.5;
    params.duration = 30.0;
    params.seed = 1234;
    workload::SyntheticGenerator generator(sim, array, params);
    return generator.run().trace;
  }();
  return trace;
}

const std::shared_ptr<const trace::TraceSource>& peak_source() {
  static const auto source =
      trace::make_source(trace::TraceView::borrowed(shared_peak_trace()));
  return source;
}

ReplayReport replay_hdd(const trace::TraceSource& source) {
  ReplayEngine engine;
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  return engine.replay(source, array);
}

const ReplayReport& baseline_report() {
  static const ReplayReport report = replay_hdd(*peak_source());
  return report;
}

class LoadLevelProperty : public ::testing::TestWithParam<int> {};

TEST_P(LoadLevelProperty, ThroughputScalesWithConfiguredLoad) {
  const double load = GetParam() / 100.0;
  const ReplayReport report =
      load >= 1.0
          ? baseline_report()
          : replay_hdd(*ProportionalFilter::apply(peak_source(), load));
  const double lp_iops =
      load_proportion(baseline_report().perf.iops, report.perf.iops);
  const double lp_mbps =
      load_proportion(baseline_report().perf.mbps, report.perf.mbps);
  EXPECT_NEAR(lp_iops, load, 0.03) << "IOPS proportion off";
  EXPECT_NEAR(lp_mbps, load, 0.03) << "MBPS proportion off";
}

TEST_P(LoadLevelProperty, PowerBetweenIdleAndPeak) {
  const double load = GetParam() / 100.0;
  const ReplayReport report =
      load >= 1.0
          ? baseline_report()
          : replay_hdd(*ProportionalFilter::apply(peak_source(), load));
  const double idle = 30.0 + 6 * storage::HddParams{}.idle_watts;
  EXPECT_GT(report.avg_true_watts, idle * 0.999);
  EXPECT_LE(report.avg_true_watts,
            baseline_report().avg_true_watts * 1.01);
}

TEST_P(LoadLevelProperty, ResponseTimeNoWorseThanPeakLoad) {
  const double load = GetParam() / 100.0;
  if (load >= 1.0) GTEST_SKIP() << "baseline compares against itself";
  const ReplayReport report =
      replay_hdd(*ProportionalFilter::apply(peak_source(), load));
  EXPECT_LE(report.perf.avg_response_ms,
            baseline_report().perf.avg_response_ms * 1.25);
}

INSTANTIATE_TEST_SUITE_P(Levels, LoadLevelProperty,
                         ::testing::Values(10, 30, 50, 70, 90, 100));

// ---------- mode sweep: every array x mode combination stays sane ----------

struct ModeCase {
  const char* array;  // "hdd" | "ssd"
  Bytes request_size;
  int read_pct;
  int random_pct;
};

class ModeSweepProperty : public ::testing::TestWithParam<ModeCase> {};

TEST_P(ModeSweepProperty, GenerateAndReplayStaysConsistent) {
  const ModeCase mode_case = GetParam();
  const storage::ArrayConfig config =
      std::string(mode_case.array) == "hdd"
          ? storage::ArrayConfig::hdd_testbed(6)
          : storage::ArrayConfig::ssd_testbed(4);

  sim::Simulator sim;
  storage::DiskArray array(sim, config);
  workload::SyntheticParams params;
  params.request_size = mode_case.request_size;
  params.read_ratio = mode_case.read_pct / 100.0;
  params.random_ratio = mode_case.random_pct / 100.0;
  params.duration = 2.0;
  params.seed = 7;
  workload::SyntheticGenerator generator(sim, array, params);
  const workload::GeneratorResult result = generator.run();
  ASSERT_GT(result.requests, 10u);

  ReplayEngine engine;
  storage::DiskArray replay_array(engine.simulator(), config);
  const ReplayReport report =
      engine.replay(trace::TraceView::borrowed(result.trace), replay_array);

  // Conservation: every package replayed and completed exactly once.
  EXPECT_EQ(report.packages_replayed, result.trace.package_count());
  EXPECT_EQ(report.perf.completions, result.trace.package_count());
  // Replay throughput reproduces the collection-time throughput (the
  // premise of the whole load-control scheme).
  EXPECT_NEAR(report.perf.iops, result.achieved_iops,
              result.achieved_iops * 0.2);
  // Energy accounting is positive and consistent.
  EXPECT_GT(report.joules, 0.0);
  EXPECT_GT(report.avg_watts, 0.0);
  EXPECT_GT(report.efficiency.iops_per_watt, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    ArraysAndModes, ModeSweepProperty,
    ::testing::Values(ModeCase{"hdd", 512, 0, 100},
                      ModeCase{"hdd", 4 * kKiB, 50, 50},
                      ModeCase{"hdd", 64 * kKiB, 100, 0},
                      ModeCase{"hdd", kMiB, 25, 25},
                      ModeCase{"ssd", 4 * kKiB, 50, 100},
                      ModeCase{"ssd", 128 * kKiB, 0, 0},
                      ModeCase{"ssd", 16 * kKiB, 100, 50}),
    [](const ::testing::TestParamInfo<ModeCase>& mode_info) {
      const auto& p = mode_info.param;
      return std::string(p.array) + "_rs" +
             std::to_string(p.request_size / 512) + "x512_rd" +
             std::to_string(p.read_pct) + "_rnd" +
             std::to_string(p.random_pct);
    });

}  // namespace
}  // namespace tracer::core
