#include "core/realtime_replayer.h"

#include <gtest/gtest.h>

#include "core/interarrival_scaler.h"

namespace tracer::core {
namespace {

trace::Trace small_trace(std::size_t bunches, Seconds gap) {
  trace::Trace trace;
  trace.device = "rt";
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * gap;
    bunch.packages.push_back(
        trace::IoPackage{b * 8, 4096, OpType::kRead});
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

/// `trace` at `speed` times its own intensity (InterarrivalScaler).
std::shared_ptr<const trace::TraceSource> sped_up(const trace::Trace& trace,
                                                  double speed) {
  return InterarrivalScaler::scale(
      trace::make_source(trace::TraceView::borrowed(trace)), speed);
}

TEST(RealtimeReplayer, RejectsBadInput) {
  RealtimeReplayer replayer;
  SyntheticRealtimeTarget target(
      [](const storage::IoRequest&) { return 0.0; });
  EXPECT_THROW(replayer.replay(trace::TraceView::owning({}), target),
               std::invalid_argument);
}

TEST(RealtimeReplayer, ReplaysAllPackagesAndCountsBytes) {
  RealtimeReplayer replayer;
  SyntheticRealtimeTarget target(
      [](const storage::IoRequest&) { return 0.0; });
  const trace::Trace trace = small_trace(50, 0.01);
  const RealtimeReport report = replayer.replay(*sped_up(trace, 100.0), target);
  EXPECT_EQ(report.packages, 50u);
  EXPECT_EQ(report.bytes, 50u * 4096);
  EXPECT_GT(report.iops, 0.0);
  EXPECT_GT(report.mbps, 0.0);
}

TEST(RealtimeReplayer, SpeedFactorCompressesWallTime) {
  const trace::Trace trace = small_trace(20, 0.02);  // 0.38 s span
  SyntheticRealtimeTarget target(
      [](const storage::IoRequest&) { return 0.0; });
  RealtimeReplayer replayer;
  const RealtimeReport report = replayer.replay(*sped_up(trace, 20.0), target);
  EXPECT_LT(report.wall_duration, 0.25);
  EXPECT_GE(report.wall_duration, 0.38 / 20.0 * 0.8);
}

TEST(RealtimeReplayer, HonorsInterArrivalPacing) {
  const trace::Trace trace = small_trace(10, 0.02);  // 0.18 s span
  SyntheticRealtimeTarget target(
      [](const storage::IoRequest&) { return 0.0; });
  RealtimeReplayer realtime;
  const RealtimeReport report =
      realtime.replay(trace::TraceView::borrowed(trace), target);
  EXPECT_GE(report.wall_duration, 0.17);
  EXPECT_LT(report.max_timing_error_ms, 50.0);
}

TEST(RealtimeReplayer, AccountsSyntheticLatency) {
  const trace::Trace trace = small_trace(10, 0.001);
  SyntheticRealtimeTarget target(
      [](const storage::IoRequest&) { return 2e-3; });
  RealtimeReplayer replayer;
  const RealtimeReport report = replayer.replay(*sped_up(trace, 10.0), target);
  EXPECT_NEAR(report.avg_latency_ms, 2.0, 0.5);
}

TEST(RealtimeReplayer, LatencyModelSeesRequestFields) {
  const trace::Trace trace = small_trace(5, 0.001);
  std::atomic<int> reads{0};
  SyntheticRealtimeTarget target([&reads](const storage::IoRequest& req) {
    if (req.op == OpType::kRead && req.bytes == 4096) ++reads;
    return 0.0;
  });
  RealtimeReplayer replayer;
  replayer.replay(*sped_up(trace, 100.0), target);
  EXPECT_EQ(reads.load(), 5);
}

}  // namespace
}  // namespace tracer::core
