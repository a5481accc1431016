#include "core/evaluation_host.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "core/campaign.h"
#include "core/proportional_filter.h"
#include "obs/registry.h"
#include "util/thread_pool.h"
#include "workload/cello_model.h"

namespace tracer::core {
namespace {

class EvaluationHostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tracer_eval_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    options_.collection_duration = 1.0;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  workload::WorkloadMode mode(double load = 1.0) {
    workload::WorkloadMode m;
    m.request_size = 16 * kKiB;
    m.random_ratio = 0.5;
    m.read_ratio = 0.5;
    m.load_proportion = load;
    return m;
  }

  /// Sweep `modes` over `host` with CampaignRunner, journal off and fail
  /// fast, so each slot holds its test's first outcome.
  CampaignReport sweep(EvaluationHost& host,
                       const std::vector<workload::WorkloadMode>& modes,
                       bool cancel_first = false) {
    CampaignOptions options;
    options.threads = threads_;
    options.max_retries = 0;
    CampaignRunner runner(host, options);
    if (cancel_first) runner.cancel_token().request_cancel();
    return runner.run(modes);
  }

  std::filesystem::path dir_;
  EvaluationOptions options_;
  std::size_t threads_ = 2;
};

TEST_F(EvaluationHostTest, PeakTraceCollectedOnceAndCached) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  const auto first = host.peak_trace_shared(mode());
  EXPECT_GT(first->bunch_count(), 0u);
  EXPECT_TRUE(host.repository().contains(
      mode().trace_key(host.array_config().name)));
  const auto second = host.peak_trace_shared(mode());
  EXPECT_EQ(*first, *second);  // served from the cache, not regenerated
  EXPECT_EQ(host.peak_build_count(), 1u);
}

TEST_F(EvaluationHostTest, RunTestFillsFullDatabaseRecord) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  const TestResult result = host.run_test(mode(0.5));
  const db::TestRecord& r = result.record;
  EXPECT_EQ(r.test_id, 0u);  // whoever stores the record numbers it
  EXPECT_FALSE(r.timestamp.empty());
  EXPECT_EQ(r.device, "raid5-hdd6");
  EXPECT_FALSE(r.trace_name.empty());
  EXPECT_EQ(r.request_size, 16 * kKiB);
  EXPECT_DOUBLE_EQ(r.load_proportion, 0.5);
  EXPECT_GT(r.iops, 0.0);
  EXPECT_GT(r.mbps, 0.0);
  EXPECT_GT(r.avg_response_ms, 0.0);
  EXPECT_GT(r.avg_watts, 70.0);  // idle is 78 W
  EXPECT_GT(r.avg_volts, 200.0);
  EXPECT_GT(r.avg_amps, 0.0);
  EXPECT_GT(r.joules, 0.0);
  EXPECT_GT(r.iops_per_watt, 0.0);
  EXPECT_GT(r.mbps_per_kilowatt, 0.0);
}

TEST_F(EvaluationHostTest, LoadProportionScalesRecordedThroughput) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  const TestResult full = host.run_test(mode(1.0));
  const TestResult fifth = host.run_test(mode(0.2));
  EXPECT_NEAR(fifth.record.iops / full.record.iops, 0.2, 0.08);
}

TEST_F(EvaluationHostTest, RunTraceLabelsExternalWorkloads) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  workload::CelloParams params;
  params.duration = 5.0;
  workload::CelloModel cello(params);
  const auto source =
      trace::make_source(trace::TraceView::owning(cello.generate()));
  const TestResult result = host.run_source(source, "cello99", 0.5);
  EXPECT_EQ(result.record.trace_name, "cello99");
  EXPECT_DOUBLE_EQ(result.record.load_proportion, 0.5);
  EXPECT_NEAR(result.record.read_ratio, 0.58, 0.05);
  EXPECT_GT(result.record.iops, 0.0);

  // The host's test body is exactly filter -> replay: a hand-built engine
  // on the filtered source gives bit-equal performance figures. Only the
  // power fields may differ (the host seeds its own sensor).
  ReplayOptions replay_options;
  replay_options.sampling_cycle = options_.sampling_cycle;
  ReplayEngine engine(replay_options);
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  const ReplayReport direct =
      engine.replay(*ProportionalFilter::apply(source, 0.5), array);
  EXPECT_EQ(result.report.perf.iops, direct.perf.iops);
  EXPECT_EQ(result.report.perf.mbps, direct.perf.mbps);
  EXPECT_EQ(result.report.perf.avg_response_ms, direct.perf.avg_response_ms);
  EXPECT_EQ(result.report.perf.iops_series, direct.perf.iops_series);
  EXPECT_EQ(result.record.iops, direct.perf.iops);
  EXPECT_EQ(result.record.mbps, direct.perf.mbps);
  EXPECT_EQ(result.record.avg_response_ms, direct.perf.avg_response_ms);
}

TEST_F(EvaluationHostTest, SweepRunsAllModesInParallel) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  std::vector<workload::WorkloadMode> modes;
  for (double load : {0.2, 0.4, 0.6, 0.8}) modes.push_back(mode(load));
  const CampaignReport report = sweep(host, modes);
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    const TestOutcome& outcome = report.outcomes[i];
    ASSERT_EQ(outcome.status, TestStatus::kCompleted) << outcome.error;
    EXPECT_EQ(outcome.record.test_id, i);
    EXPECT_DOUBLE_EQ(outcome.record.load_proportion,
                     modes[i].load_proportion);
    EXPECT_GT(outcome.record.iops, 0.0);
  }
  // Outcomes come back in input order: throughput ordered by load.
  EXPECT_LT(report.outcomes[0].record.iops, report.outcomes[3].record.iops);
  EXPECT_EQ(report.completed(), 4u);
}

TEST_F(EvaluationHostTest, SweepIsolatesFailingTest) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  // Load 0.04 is below the proportional filter's resolution floor, so that
  // one test throws; the other slots must still complete.
  std::vector<workload::WorkloadMode> modes = {mode(0.5), mode(0.04),
                                               mode(1.0)};
  const CampaignReport report = sweep(host, modes);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_TRUE(report.outcomes[0].ok()) << report.outcomes[0].error;
  EXPECT_EQ(report.outcomes[1].status, TestStatus::kFailed);
  EXPECT_NE(report.outcomes[1].error.find("resolution floor"),
            std::string::npos)
      << report.outcomes[1].error;
  EXPECT_TRUE(report.outcomes[2].ok()) << report.outcomes[2].error;
  EXPECT_EQ(report.completed(), 2u);
  EXPECT_EQ(report.failed(), 1u);
}

TEST_F(EvaluationHostTest, SweepHonoursCancellation) {
  threads_ = 1;
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  std::vector<workload::WorkloadMode> modes;
  for (double load : {0.2, 0.4, 0.6, 0.8}) modes.push_back(mode(load));
  const auto before = obs::Registry::global().snapshot().counter_or(
      "host.phase.replay.calls");
  // Cancelled before the sweep starts: no slot runs.
  const CampaignReport report = sweep(host, modes, /*cancel_first=*/true);
  ASSERT_EQ(report.outcomes.size(), 4u);
  for (const auto& outcome : report.outcomes) {
    EXPECT_EQ(outcome.status, TestStatus::kCancelled);
    EXPECT_EQ(outcome.attempts, 0);
  }
  EXPECT_EQ(report.cancelled(), 4u);
  EXPECT_EQ(obs::Registry::global().snapshot().counter_or(
                "host.phase.replay.calls"),
            before);
}

TEST_F(EvaluationHostTest, PeakTraceSharedReturnsSamePointerAcrossLoadLevels) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  const auto first = host.peak_trace_shared(mode(1.0));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(host.peak_build_count(), 1u);
  // Load proportion is not part of the trace key: every level of the same
  // workload mode shares the one cached instance.
  for (double load : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_EQ(host.peak_trace_shared(mode(load)).get(), first.get());
  }
  EXPECT_EQ(host.peak_build_count(), 1u);
}

TEST_F(EvaluationHostTest, PeakCacheBuildsOnceUnderConcurrentAccess) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  constexpr std::size_t kCallers = 16;
  std::vector<std::shared_ptr<const trace::Trace>> seen(kCallers);
  util::ThreadPool pool(4);
  pool.parallel_for(kCallers, [&](std::size_t i) {
    seen[i] = host.peak_trace_shared(mode(0.1 * static_cast<double>(i + 1)));
  });
  std::set<const trace::Trace*> distinct;
  for (const auto& ptr : seen) {
    ASSERT_NE(ptr, nullptr);
    distinct.insert(ptr.get());
  }
  EXPECT_EQ(distinct.size(), 1u);
  EXPECT_EQ(host.peak_build_count(), 1u);
}

TEST_F(EvaluationHostTest, SweepOverLoadLevelsBuildsPeakTraceExactlyOnce) {
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  std::vector<workload::WorkloadMode> modes;
  for (int level = 1; level <= 10; ++level) modes.push_back(mode(level / 10.0));
  const CampaignReport report = sweep(host, modes);
  ASSERT_EQ(report.outcomes.size(), 10u);
  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.ok()) << outcome.error;
  }
  // The acceptance criterion: 10 load levels of one mode parse/generate
  // the peak trace exactly once.
  EXPECT_EQ(host.peak_build_count(), 1u);
  EXPECT_EQ(report.completed(), 10u);
}

TEST_F(EvaluationHostTest, RepositoryPersistsAcrossHosts) {
  std::shared_ptr<const trace::Trace> collected;
  {
    EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_,
                        options_);
    collected = host.peak_trace_shared(mode());
  }
  EvaluationHost second(storage::ArrayConfig::hdd_testbed(6), dir_,
                        options_);
  EXPECT_TRUE(second.repository().contains(
      mode().trace_key(second.array_config().name)));
  // The second host loads the stored trace instead of collecting again.
  EXPECT_EQ(*second.peak_trace_shared(mode()), *collected);
}

TEST_F(EvaluationHostTest, SweepPopulatesObservabilityCounters) {
  // The registry is process-global and other tests bump it too, so assert
  // on deltas across this sweep, not absolutes.
  const obs::Snapshot before = obs::Registry::global().snapshot();

  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_, options_);
  std::vector<workload::WorkloadMode> modes;
  for (int level = 1; level <= 10; ++level) {
    modes.push_back(mode(level / 10.0));
  }
  const CampaignReport report = sweep(host, modes);
  for (const auto& outcome : report.outcomes) {
    ASSERT_TRUE(outcome.ok()) << outcome.error;
  }

  const obs::Snapshot after = obs::Registry::global().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_or(name) - before.counter_or(name);
  };
  // 10 load levels of one mode: one build/miss, nine (or more) hits.
  EXPECT_EQ(delta("host.peak_cache.misses"), 1u);
  EXPECT_EQ(delta("host.peak_cache.builds"), 1u);
  EXPECT_GE(delta("host.peak_cache.hits"), 9u);
  // Every test replayed a filtered trace through the engine.
  EXPECT_EQ(delta("replay.runs"), 10u);
  EXPECT_GT(delta("replay.events_scheduled"), 0u);
  EXPECT_GT(delta("replay.packages"), 0u);
  // Phase timers saw every test (generate ran once, behind the cache).
  EXPECT_EQ(delta("host.phase.generate.calls"), 1u);
  EXPECT_EQ(delta("host.phase.filter.calls"), 10u);
  EXPECT_EQ(delta("host.phase.replay.calls"), 10u);
  EXPECT_EQ(delta("host.phase.measure.calls"), 10u);
  EXPECT_GT(delta("host.phase.replay.us"), 0u);
  // Power sampling ran during each replay.
  EXPECT_GT(delta("power.samples"), 0u);
  // Queue depth gauge saw at least one in-flight package.
  EXPECT_GE(after.gauge_or("replay.max_in_flight"), 1.0);
}

TEST_F(EvaluationHostTest, SsdArrayWorksEndToEnd) {
  EvaluationHost host(storage::ArrayConfig::ssd_testbed(4), dir_, options_);
  const TestResult result = host.run_test(mode(1.0));
  EXPECT_GT(result.record.avg_watts, 190.0);  // chassis-dominated
  EXPECT_GT(result.record.mbps, 1.0);
}

}  // namespace
}  // namespace tracer::core
