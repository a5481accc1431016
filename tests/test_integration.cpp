// Cross-module integration tests: the paper's whole §III-B procedure and
// the headline experimental claims, executed end-to-end at test scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "core/evaluation_host.h"
#include "core/proportional_filter.h"
#include "core/replay_engine.h"
#include "db/journal.h"
#include "trace/blk_format.h"
#include "trace/srt_format.h"
#include "trace/trace_stats.h"
#include "util/stats.h"
#include "workload/cello_model.h"
#include "workload/web_server_model.h"

namespace tracer {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tracer_integration_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IntegrationTest, FullEvaluationPipelineEndToEnd) {
  // §III-B: build repository -> configure mode -> test at load levels ->
  // store the records -> query the results database.
  core::EvaluationOptions options;
  options.collection_duration = 2.0;
  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_,
                            options);

  workload::WorkloadMode mode;
  mode.request_size = 4 * kKiB;
  mode.random_ratio = 0.5;
  mode.read_ratio = 0.0;

  std::filesystem::create_directories(dir_);
  const auto db_path = dir_ / "results.csv";
  db::CampaignJournal journal(db_path);
  std::vector<db::TestRecord> records;
  std::vector<double> iops;
  for (double load : {0.2, 0.5, 1.0}) {
    mode.load_proportion = load;
    db::TestRecord record = host.run_test(mode).record;
    record.test_id = records.size() + 1;
    journal.append(record);
    iops.push_back(record.iops);
    records.push_back(std::move(record));
  }
  // Linearity of load control (paper Fig 8).
  EXPECT_NEAR(iops[0] / iops[2], 0.2, 0.05);
  EXPECT_NEAR(iops[1] / iops[2], 0.5, 0.06);

  // Results persist and reload: the journal holds exactly the tests we
  // ran, bit for bit.
  const auto rows = db::CampaignJournal::load(db_path);
  EXPECT_EQ(rows, records);
  EXPECT_EQ(std::count_if(rows.begin(), rows.end(),
                          [](const db::TestRecord& r) {
                            return r.request_size == 4 * kKiB;
                          }),
            3);
}

TEST_F(IntegrationTest, PowerCorrelatesWithThroughputAcrossLoads) {
  // §I: "power consumption of a storage system is closely correlated with
  // I/O throughput performance".
  core::EvaluationOptions options;
  options.collection_duration = 2.0;
  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir_,
                            options);
  workload::WorkloadMode mode;
  mode.request_size = 64 * kKiB;
  mode.random_ratio = 0.25;
  mode.read_ratio = 0.25;

  std::vector<double> mbps;
  std::vector<double> watts;
  for (double load : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    mode.load_proportion = load;
    const auto record = host.run_test(mode).record;
    mbps.push_back(record.mbps);
    watts.push_back(record.avg_watts);
  }
  EXPECT_GT(util::pearson_correlation(mbps, watts), 0.9);
}

TEST_F(IntegrationTest, WebTraceSurvivesFormatAndFilterPipeline) {
  // Generate web trace -> write .replay -> read back -> filter -> replay.
  workload::WebServerParams params;
  params.duration = 30.0;
  params.fs_size = 2ULL * 1024 * 1024 * 1024;
  params.dataset = 256ULL * 1024 * 1024;
  params.session_rate = 20.0;
  workload::WebServerModel model(params);
  const trace::Trace original = model.generate();

  const auto path = (dir_ / "web.replay").string();
  std::filesystem::create_directories(dir_);
  trace::write_blk_file(path, original);
  const trace::Trace loaded = trace::read_blk_file(path);
  ASSERT_EQ(loaded, original);

  const auto filtered = core::ProportionalFilter::apply(
      trace::make_source(trace::TraceView::borrowed(loaded)), 0.3);
  core::ReplayEngine engine;
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  const core::ReplayReport report = engine.replay(*filtered, array);
  EXPECT_EQ(report.packages_replayed, filtered->package_count());
  EXPECT_GT(report.perf.mbps, 0.0);
}

TEST_F(IntegrationTest, CelloSrtTransformerPipeline) {
  // cello SRT records -> srt file -> parse -> transform -> replay: the
  // paper's trace-format-transformer path (§III-A2).
  workload::CelloParams params;
  params.duration = 10.0;
  workload::CelloModel model(params);
  const auto records = model.generate_srt();

  std::filesystem::create_directories(dir_);
  const auto path = (dir_ / "cello.srt").string();
  trace::write_srt_file(path, records);
  const auto parsed = trace::parse_srt_file(path);
  ASSERT_EQ(parsed.size(), records.size());
  // Timestamps survive the text round trip to printed precision.
  EXPECT_NEAR(parsed.back().time, records.back().time, 1e-5);

  const trace::Trace trace = trace::srt_to_blk(parsed, 0.5e-3, "cello99");
  core::ReplayEngine engine;
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  const core::ReplayReport report =
      engine.replay(trace::TraceView::borrowed(trace), array);
  EXPECT_EQ(report.perf.completions, trace.package_count());
}

TEST_F(IntegrationTest, ShapePreservationUnderFiltering) {
  // Fig 12's claim at test scale: the per-interval shape of a filtered
  // replay correlates with the full replay.
  workload::WebServerParams params;
  params.duration = 120.0;
  params.fs_size = 2ULL * 1024 * 1024 * 1024;
  params.dataset = 256ULL * 1024 * 1024;
  params.session_rate = 25.0;
  params.diurnal_period = 60.0;
  params.diurnal_swing = 0.7;
  workload::WebServerModel model(params);
  const auto web =
      trace::make_source(trace::TraceView::owning(model.generate()));

  auto interval_series = [](const trace::TraceSource& source) {
    util::TimeBinnedSeries series(10.0);
    for (std::size_t i = 0; i < source.bunch_count(); ++i) {
      series.add(source.timestamp(i),
                 static_cast<double>(source.packages(i).size()));
    }
    return series.sums();
  };
  auto full = interval_series(*web);
  auto filtered =
      interval_series(*core::ProportionalFilter::apply(web, 0.2));
  filtered.resize(full.size());
  EXPECT_GT(util::pearson_correlation(full, filtered), 0.97);
}

TEST_F(IntegrationTest, HigherLoadImprovesEfficiencyOnBothArrays) {
  // Fig 9 claim on HDD and §VI-G on SSD, at test scale.
  for (const auto& config : {storage::ArrayConfig::hdd_testbed(6),
                             storage::ArrayConfig::ssd_testbed(4)}) {
    core::EvaluationOptions options;
    options.collection_duration = 1.0;
    core::EvaluationHost host(config, dir_ / config.name, options);
    workload::WorkloadMode mode;
    mode.request_size = 16 * kKiB;
    mode.random_ratio = 0.25;
    mode.read_ratio = 0.25;
    mode.load_proportion = 0.2;
    const double low = host.run_test(mode).record.mbps_per_kilowatt;
    mode.load_proportion = 1.0;
    const double high = host.run_test(mode).record.mbps_per_kilowatt;
    EXPECT_GT(high, low) << config.name;
  }
}

TEST_F(IntegrationTest, RandomIoHurtsHddEfficiencyMoreThanSsd) {
  // §VI-G: the SSD's random penalty is far gentler than the HDD's seeks.
  auto efficiency_drop = [&](const storage::ArrayConfig& config) {
    core::EvaluationOptions options;
    options.collection_duration = 1.0;
    core::EvaluationHost host(config, dir_ / (config.name + "-rnd"),
                              options);
    workload::WorkloadMode mode;
    mode.request_size = 128 * kKiB;
    mode.read_ratio = 0.5;
    mode.random_ratio = 0.0;
    const double sequential = host.run_test(mode).record.mbps;
    mode.random_ratio = 1.0;
    const double random = host.run_test(mode).record.mbps;
    return sequential / random;
  };
  const double hdd_ratio =
      efficiency_drop(storage::ArrayConfig::hdd_testbed(6));
  const double ssd_ratio =
      efficiency_drop(storage::ArrayConfig::ssd_testbed(4));
  EXPECT_GT(hdd_ratio, ssd_ratio * 2.0);
}

}  // namespace
}  // namespace tracer
