#include "workload/cello_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "trace/trace_stats.h"

namespace tracer::workload {
namespace {

CelloParams small_params() {
  CelloParams params;
  params.duration = 60.0;
  params.arrival_rate = 100.0;
  params.seed = 9;
  return params;
}

TEST(CelloModel, RejectsBadParameters) {
  CelloParams params = small_params();
  params.duration = 0.0;
  EXPECT_THROW(CelloModel{params}, std::invalid_argument);
  params = small_params();
  params.arrival_rate = 0.0;
  EXPECT_THROW(CelloModel{params}, std::invalid_argument);
}

TEST(CelloModel, GeneratesTimeSortedSrtRecords) {
  CelloModel model(small_params());
  const auto records = model.generate_srt();
  EXPECT_GT(records.size(), 1000u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].time, records[i - 1].time);
  }
}

TEST(CelloModel, ReadRatioNear58Percent) {
  CelloModel model(small_params());
  const trace::Trace trace = model.generate();
  EXPECT_NEAR(trace.read_ratio(), 0.58, 0.04);
}

TEST(CelloModel, RequestSizesAreUneven) {
  // The paper attributes cello's higher load-control error to uneven
  // request sizes: the size distribution must have a high coefficient of
  // variation, unlike the fixed-size synthetic traces.
  CelloModel model(small_params());
  const auto records = model.generate_srt();
  double sum = 0.0;
  double sq = 0.0;
  for (const auto& r : records) {
    sum += static_cast<double>(r.size);
    sq += static_cast<double>(r.size) * static_cast<double>(r.size);
  }
  const double n = static_cast<double>(records.size());
  const double mean = sum / n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  EXPECT_GT(cv, 1.0);
}

TEST(CelloModel, SizesAreSectorAlignedAndBounded) {
  CelloModel model(small_params());
  for (const auto& record : model.generate_srt()) {
    EXPECT_EQ(record.size % kSectorSize, 0u);
    EXPECT_GE(record.size, 2048u);
    EXPECT_LE(record.size, kMiB);
    EXPECT_LE(record.start_byte + record.size, small_params().device_span);
  }
}

TEST(CelloModel, HotZoneReceivesMostAccesses) {
  CelloParams params = small_params();
  params.hot_probability = 0.7;
  params.hot_fraction = 0.1;
  params.sequential_run_prob = 0.0;  // isolate placement policy
  CelloModel model(params);
  const auto records = model.generate_srt();
  const Bytes hot_limit = static_cast<Bytes>(
      static_cast<double>(params.device_span) * params.hot_fraction);
  std::size_t hot = 0;
  for (const auto& r : records) {
    if (r.start_byte < hot_limit) ++hot;
  }
  const double hot_share = static_cast<double>(hot) /
                           static_cast<double>(records.size());
  // 70 % directed + ~10 % of the uniform remainder.
  EXPECT_NEAR(hot_share, 0.73, 0.05);
}

TEST(CelloModel, GenerateRunsSrtPipeline) {
  CelloModel model(small_params());
  const trace::Trace trace = model.generate();
  EXPECT_EQ(trace.device, "cello99");
  EXPECT_GT(trace.bunch_count(), 0u);
  const auto stats = trace::compute_stats(trace::TraceView::borrowed(trace));
  EXPECT_GT(stats.mean_iops, 50.0);
}

TEST(CelloModel, BurstyArrivalsProduceCrestsAndTroughs) {
  CelloModel model(small_params());
  const trace::Trace trace = model.generate();
  std::vector<double> bins(60, 0.0);
  for (const auto& bunch : trace.bunches) {
    const auto bin = static_cast<std::size_t>(bunch.timestamp);
    if (bin < bins.size()) bins[bin] += static_cast<double>(bunch.packages.size());
  }
  double lo = 1e18;
  double hi = 0.0;
  for (double b : bins) {
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  EXPECT_GT(hi, lo * 2.0 + 1.0);  // Pareto gaps create visible burstiness
}

TEST(CelloModel, DeterministicForSeed) {
  CelloModel a(small_params());
  CelloModel b(small_params());
  EXPECT_EQ(a.generate_srt(), b.generate_srt());
}

}  // namespace
}  // namespace tracer::workload
