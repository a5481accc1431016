#include "workload/web_server_model.h"

#include <gtest/gtest.h>

#include "trace/trace_stats.h"

namespace tracer::workload {
namespace {

WebServerParams small_params() {
  WebServerParams params;
  params.duration = 60.0;
  params.fs_size = 4ULL * 1024 * 1024 * 1024;
  params.dataset = 512ULL * 1024 * 1024;
  params.session_rate = 40.0;
  params.seed = 5;
  return params;
}

TEST(WebServerModel, RejectsInconsistentSizes) {
  WebServerParams params = small_params();
  params.dataset = params.fs_size * 2;
  EXPECT_THROW(WebServerModel{params}, std::invalid_argument);
  params = small_params();
  params.duration = 0.0;
  EXPECT_THROW(WebServerModel{params}, std::invalid_argument);
}

TEST(WebServerModel, ObjectPopulationCoversDataset) {
  WebServerModel model(small_params());
  EXPECT_GT(model.object_count(), 100u);
}

TEST(WebServerModel, TraceMatchesConfiguredReadRatio) {
  WebServerModel model(small_params());
  const trace::Trace trace = model.generate();
  EXPECT_NEAR(trace.read_ratio(), small_params().read_ratio, 0.03);
}

TEST(WebServerModel, MeanChunkSizeNearTableIII) {
  WebServerParams params = small_params();
  params.duration = 120.0;
  WebServerModel model(params);
  const trace::Trace trace = model.generate();
  const double mean_kb = trace.mean_request_size() / 1024.0;
  EXPECT_NEAR(mean_kb, 21.5, 4.0);
}

TEST(WebServerModel, DurationBoundsArrivals) {
  WebServerModel model(small_params());
  const trace::Trace trace = model.generate();
  // Session chunks may trail slightly past the last arrival, but the trace
  // cannot meaningfully exceed the configured duration.
  EXPECT_LE(trace.duration(), small_params().duration * 1.05);
  EXPECT_GT(trace.duration(), small_params().duration * 0.5);
}

TEST(WebServerModel, AddressesStayInsideFileSystem) {
  WebServerModel model(small_params());
  const trace::Trace trace = model.generate();
  const Sector limit = small_params().fs_size / kSectorSize;
  for (const auto& bunch : trace.bunches) {
    for (const auto& pkg : bunch.packages) {
      EXPECT_LE(pkg.sector + pkg.bytes / kSectorSize, limit + 8);
    }
  }
}

TEST(WebServerModel, SessionsReadObjectsSequentially) {
  WebServerModel model(small_params());
  const trace::Trace trace = model.generate();
  const auto stats = trace::compute_stats(trace::TraceView::borrowed(trace));
  // Streaming sessions produce a visible sequential component even after
  // interleaving (bunching reorders within a millisecond only).
  EXPECT_GT(stats.sequential_ratio, 0.2);
}

TEST(WebServerModel, DiurnalSwingShapesIntensity) {
  WebServerParams params = small_params();
  params.duration = 600.0;
  params.diurnal_period = 200.0;
  params.diurnal_swing = 0.8;
  WebServerModel model(params);
  const trace::Trace trace = model.generate();
  // Bin packages per 20 s; intensity must visibly vary (crests/troughs).
  std::vector<double> bins(30, 0.0);
  for (const auto& bunch : trace.bunches) {
    const auto bin = static_cast<std::size_t>(bunch.timestamp / 20.0);
    if (bin < bins.size()) bins[bin] += static_cast<double>(bunch.packages.size());
  }
  double lo = bins[0];
  double hi = bins[0];
  for (double b : bins) {
    lo = std::min(lo, b);
    hi = std::max(hi, b);
  }
  EXPECT_GT(hi, lo * 1.5);
}

TEST(WebServerModel, DeterministicForSeed) {
  WebServerModel a(small_params());
  WebServerModel b(small_params());
  EXPECT_EQ(a.generate(), b.generate());
  WebServerParams other = small_params();
  other.seed = 6;
  WebServerModel c(other);
  EXPECT_NE(a.generate(), c.generate());
}

TEST(WebServerModel, ZipfPopularityCreatesHotObjects) {
  WebServerParams params = small_params();
  params.duration = 300.0;
  WebServerModel model(params);
  const trace::Trace trace = model.generate();
  const auto stats = trace::compute_stats(trace::TraceView::borrowed(trace));
  // The touched footprint is well below total bytes moved (re-reads of hot
  // objects dominate).
  EXPECT_LT(stats.dataset_bytes, stats.total_bytes / 2);
}

}  // namespace
}  // namespace tracer::workload
