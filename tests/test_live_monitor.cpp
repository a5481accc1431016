// The live per-cycle monitoring path: the GUI's real-time display surface
// (CycleSnapshot callbacks) and its wire form (PROGRESS frames streamed by
// the workload-generator service during a run).
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "core/remote.h"
#include "core/replay_engine.h"
#include "storage/disk_array.h"
#include "util/rng.h"

namespace tracer::core {
namespace {

trace::Trace steady_trace(Seconds duration, double iops) {
  util::Rng rng(9);
  trace::Trace trace;
  trace.device = "live";
  Seconds t = 0.0;
  while (t < duration) {
    trace::Bunch bunch;
    bunch.timestamp = t;
    bunch.packages.push_back(trace::IoPackage{
        rng.below(1ULL << 28) * 8, 16 * kKiB, OpType::kRead});
    trace.bunches.push_back(std::move(bunch));
    t += 1.0 / iops;
  }
  return trace;
}

TEST(LiveMonitor, CallbackFiresEveryCycle) {
  ReplayOptions options;
  options.sampling_cycle = 1.0;
  std::vector<CycleSnapshot> snapshots;
  options.on_cycle = [&snapshots](const CycleSnapshot& snapshot) {
    snapshots.push_back(snapshot);
  };
  ReplayEngine engine(options);
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  const trace::Trace trace = steady_trace(8.0, 50.0);
  const ReplayReport report =
      engine.replay(trace::TraceView::borrowed(trace), array);

  ASSERT_GE(snapshots.size(), 8u);
  // Cycle boundaries are 1 s apart and monotone.
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    EXPECT_NEAR(snapshots[i].time - snapshots[i - 1].time, 1.0, 1e-9);
  }
  // Per-cycle rates track the steady workload.
  double mid_iops = 0.0;
  for (std::size_t i = 1; i + 1 < snapshots.size(); ++i) {
    mid_iops += snapshots[i].iops;
  }
  mid_iops /= static_cast<double>(snapshots.size() - 2);
  EXPECT_NEAR(mid_iops, 50.0, 6.0);
  // Cumulative counter ends at the full package count.
  EXPECT_EQ(snapshots.back().completions, report.perf.completions);
  // Power per cycle is near the array draw.
  EXPECT_GT(snapshots.front().watts, 70.0);
}

TEST(LiveMonitor, SnapshotRatesSumToTotals) {
  ReplayOptions options;
  options.sampling_cycle = 0.5;
  double ops_from_snapshots = 0.0;
  double bytes_from_snapshots = 0.0;
  options.on_cycle = [&](const CycleSnapshot& snapshot) {
    ops_from_snapshots += snapshot.iops * 0.5;
    bytes_from_snapshots += snapshot.mbps * 0.5 * 1e6;
  };
  ReplayEngine engine(options);
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  const trace::Trace trace = steady_trace(5.0, 40.0);
  const ReplayReport report =
      engine.replay(trace::TraceView::borrowed(trace), array);
  // Snapshots cover every cycle up to the drain; the last partial cycle's
  // completions may land after the final snapshot.
  EXPECT_NEAR(ops_from_snapshots,
              static_cast<double>(report.perf.completions), 3.0);
  EXPECT_NEAR(bytes_from_snapshots,
              static_cast<double>(report.perf.completions) * 16 * kKiB,
              3.0 * 16 * kKiB);
}

TEST(LiveMonitor, ServiceStreamsProgressFrames) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tracer_live_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  EvaluationOptions options;
  options.collection_duration = 5.0;
  EvaluationHost host(storage::ArrayConfig::hdd_testbed(6), dir, options);

  auto [client_end, server_end] = net::make_channel();
  net::Communicator client(std::move(client_end));
  net::Communicator server(std::move(server_end));
  WorkloadGeneratorService service(host);
  std::thread server_thread([&service, &server] { service.serve(server); });

  RemoteWorkloadClient remote(client);
  workload::WorkloadMode mode;
  mode.request_size = 16 * kKiB;
  mode.random_ratio = 0.5;
  mode.read_ratio = 0.5;
  mode.load_proportion = 1.0;
  ASSERT_TRUE(remote.configure(mode));
  const auto record = remote.start(120.0);
  ASSERT_TRUE(record.has_value());
  remote.stop();
  server_thread.join();

  // The PROGRESS frames arrived out-of-band and were stashed.
  std::size_t progress = 0;
  double last_time = 0.0;
  while (auto message = client.poll()) {
    if (message->type != net::MessageType::kProgress) continue;
    ++progress;
    const auto time = message->get_double("time");
    ASSERT_TRUE(time.has_value());
    EXPECT_GT(*time, last_time);
    last_time = *time;
    EXPECT_TRUE(message->get_double("watts").has_value());
    EXPECT_TRUE(message->get_u64("completions").has_value());
  }
  // 5 s collection window -> ~5 one-second cycles.
  EXPECT_GE(progress, 4u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tracer::core
