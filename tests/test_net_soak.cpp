// Fault-injection soak (docs/RESILIENCE.md): a full distributed campaign —
// evaluation host driving a remote workload generator AND a remote power
// analyzer over net::FaultyEndpoint links with drops, duplicates, bit
// corruption, and one hard disconnect per channel — must complete with
// ZERO lost or duplicated records. The run is compared record-for-record
// against the same campaign over clean links; they must agree on every
// perf field, and on power fields for every row that stayed power_valid
// (rows after the analyzer link dies complete as power_valid=false).
//
// Has its own main(): after the tests run, the process-global obs counter
// snapshot is written to $TRACER_METRICS_OUT (the CI net-soak job uploads
// it as an artifact).
#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/evaluation_host.h"
#include "core/power_channel.h"
#include "core/remote.h"
#include "db/journal.h"
#include "net/communicator.h"
#include "net/fault.h"
#include "net/messenger.h"
#include "obs/registry.h"
#include "power/power_timeline.h"

namespace tracer {
namespace {

class ConstantSource final : public power::PowerSource {
 public:
  explicit ConstantSource(Watts base) : timeline_(base) {}
  std::string name() const override { return "soak-array"; }
  Watts power_at(Seconds t) const override { return timeline_.power_at(t); }
  Joules energy_until(Seconds t) override { return timeline_.energy_until(t); }

 private:
  power::PowerTimeline timeline_;
};

power::HallSensorParams perfect_sensor() {
  power::HallSensorParams params;
  params.noise_relative = 0.0;
  params.gain_sigma = 0.0;
  params.offset_watts = 0.0;
  params.quantum_watts = 0.0;
  params.voltage_ripple = 0.0;
  return params;
}

/// The accept() side of a re-pairable connection: the client's reconnect
/// hook deposits the server half of each fresh endpoint pair here.
struct Listener {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<net::FaultyEndpoint> pending;
  bool closed = false;

  void push(net::FaultyEndpoint endpoint) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back(std::move(endpoint));
    }
    cv.notify_all();
  }
  std::optional<net::FaultyEndpoint> accept() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return closed || !pending.empty(); });
    if (pending.empty()) return std::nullopt;
    auto endpoint = std::move(pending.front());
    pending.pop_front();
    return endpoint;
  }
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      closed = true;
    }
    cv.notify_all();
  }
};

struct SoakConfig {
  bool faulty = false;
  std::filesystem::path journal_path;
  std::filesystem::path repo_dir;
};

struct SoakResult {
  core::CampaignReport report;
  std::vector<db::TestRecord> journal_rows;
  std::uint64_t remote_tests_run = 0;  ///< host.phase.replay.calls delta
};

constexpr Watts kTrueWatts = 80.0;
constexpr std::size_t kTests = 10;

// ISSUE-mandated lossy profile: 5 % drop, 2 % duplicate, 1 % corrupt.
net::FaultPlan lossy(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.02;
  plan.corrupt_rate = 0.01;
  plan.seed = seed;
  return plan;
}

std::vector<workload::WorkloadMode> soak_modes() {
  std::vector<workload::WorkloadMode> modes;
  for (std::size_t i = 0; i < kTests; ++i) {
    workload::WorkloadMode mode;
    mode.request_size = 16 * kKiB;
    mode.random_ratio = 0.5;
    mode.read_ratio = 0.5;
    mode.load_proportion = 0.55 + 0.05 * static_cast<double>(i);  // .55 … 1.0
    modes.push_back(mode);
  }
  return modes;
}

SoakResult run_distributed_campaign(const SoakConfig& config) {
  core::EvaluationOptions host_options;
  host_options.collection_duration = 0.3;
  host_options.sampling_cycle = 0.25;  // several PROGRESS frames per test
  host_options.threads = 1;
  core::EvaluationHost remote_host(storage::ArrayConfig::hdd_testbed(6),
                                   config.repo_dir, host_options);

  // ---- Power-analyzer leg: Fig 1's third host. In the faulty run its
  // link hard-disconnects at reply #7 = test 3's POWER_RESULT, so tests
  // 1-2 measure for real and tests 3-10 complete power-degraded.
  ConstantSource source(kTrueWatts);
  power::PowerAnalyzer analyzer(1.0, perfect_sensor());
  analyzer.add_channel(source);
  net::Messenger messenger(analyzer);
  net::FaultPlan analyzer_to_host;  // clean except for the disconnect
  analyzer_to_host.disconnect_at = config.faulty ? 7 : 0;
  auto [host_power_end, analyzer_end] =
      net::make_faulty_channel(net::FaultPlan{}, analyzer_to_host);
  net::Communicator power_comm(std::move(host_power_end));
  std::thread analyzer_thread(
      [&messenger, endpoint = std::move(analyzer_end)]() mutable {
        net::Communicator comm(std::move(endpoint));
        // Generous idle timeout: the analyzer must outlive workload-link
        // stalls, so that its OWN death is the planned disconnect, not an
        // accidental idle-out.
        messenger.serve(comm, /*idle_timeout=*/300.0);
      });
  core::RemotePowerChannel::Options power_options;
  power_options.timeout = 0.5;
  power_options.max_attempts = 2;
  power_options.backoff.base = 0.002;
  core::RemotePowerChannel power_channel(power_comm, power_options);
  remote_host.set_power_channel(&power_channel);

  // ---- Workload-generator leg: reconnectable via the listener. The
  // faulty run disconnects the server->client direction on connection 0
  // (a reply dies -> the retried command MUST dedup on the server) and
  // the client->server direction on connection 1.
  Listener listener;
  std::size_t connections = 0;
  auto connect = [&]() -> net::FaultyEndpoint {
    const std::size_t n = connections++;
    net::FaultPlan to_server;
    net::FaultPlan to_client;
    if (config.faulty) {
      to_server = lossy(1000 + n);
      to_client = lossy(2000 + n);
      if (n == 0) to_client.disconnect_at = 8;
      if (n == 1) to_server.disconnect_at = 9;
    }
    auto [client_end, server_end] = net::make_faulty_channel(to_server,
                                                             to_client);
    listener.push(std::move(server_end));
    return std::move(client_end);
  };

  core::WorkloadGeneratorService service(remote_host,
                                         core::ServiceOptions{30.0});
  std::thread server_thread([&service, &listener] {
    while (auto endpoint = listener.accept()) {
      net::Communicator comm(std::move(*endpoint));
      service.serve(comm);
    }
  });

  net::Communicator client_comm(connect());
  client_comm.set_heartbeat_interval(0.05);
  // Tight liveness: a lost reply on an otherwise-quiet link is detected in
  // 0.4 s (the server goes silent between commands, so nothing else resets
  // the deadline) and the attempt is retried instead of riding out the
  // full attempt timeout.
  client_comm.set_liveness_timeout(0.4);
  core::RemoteClientOptions client_options;
  client_options.configure_timeout = 2.0;
  client_options.start_timeout = 10.0;
  client_options.stop_timeout = 2.0;
  client_options.max_attempts = 50;
  client_options.backoff.base = 0.002;
  // Cap the retry pacing well below the default 5 s: when the final STOP
  // ack is dropped the client retries into a void (the service already
  // exited), and 50 capped-at-5s attempts would grind for minutes.
  client_options.backoff.cap = 0.05;
  client_options.backoff.jitter = 0.2;
  core::RemoteWorkloadClient remote(client_comm, client_options);
  remote.set_reconnect([&] {
    client_comm.reset(connect());
    return true;
  });

  core::CampaignOptions campaign_options;
  campaign_options.journal_path = config.journal_path;
  // No executor-level retries: a retried executor call would mint a fresh
  // request_id and could legitimately re-run a test. All fault recovery
  // happens inside call() where idempotency holds; if that gives up, the
  // slot fails and all_ok() flags it.
  campaign_options.max_retries = 0;
  campaign_options.threads = 1;
  core::CampaignRunner runner(
      [&remote](const workload::WorkloadMode& mode) {
        if (!remote.configure(mode)) {
          throw std::runtime_error("remote configure failed");
        }
        auto record = remote.start();
        if (!record) throw std::runtime_error("remote start failed");
        return *record;
      },
      "raid5-hdd6", campaign_options);

  // Every test the remote host runs is one replay phase; nothing else in
  // this campaign replays.
  auto& replay_calls =
      obs::Registry::global().counter("host.phase.replay.calls");
  const std::uint64_t replays_before = replay_calls.value();
  SoakResult result;
  result.report = runner.run(soak_modes());

  remote.stop();
  listener.close();
  server_thread.join();
  power_comm.close();
  analyzer_thread.join();

  result.journal_rows = db::CampaignJournal::load(config.journal_path);
  result.remote_tests_run = replay_calls.value() - replays_before;
  return result;
}

TEST(NetSoak, LossyCampaignLosesNothingAndDegradesGracefully) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tracer_net_soak_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto& registry = obs::Registry::global();
  auto& dedup_hits = registry.counter("net.rpc.dedup_hits");
  auto& rpc_retries = registry.counter("net.rpc.retries");
  auto& reconnects = registry.counter("net.rpc.reconnects");
  auto& disconnects = registry.counter("net.fault.disconnects");
  auto& heartbeats_sent = registry.counter("net.heartbeat.sent");
  auto& power_degraded = registry.counter("host.power.degraded");

  const std::uint64_t dedup_before = dedup_hits.value();
  const std::uint64_t retries_before = rpc_retries.value();
  const std::uint64_t reconnects_before = reconnects.value();
  const std::uint64_t disconnects_before = disconnects.value();
  const std::uint64_t heartbeats_before = heartbeats_sent.value();
  const std::uint64_t degraded_before = power_degraded.value();

  SoakConfig faulty;
  faulty.faulty = true;
  faulty.journal_path = dir / "faulty_journal.csv";
  faulty.repo_dir = dir / "repo";  // shared: both runs use the same trace
  const SoakResult chaos = run_distributed_campaign(faulty);

  SoakConfig clean;
  clean.faulty = false;
  clean.journal_path = dir / "clean_journal.csv";
  clean.repo_dir = dir / "repo";
  const SoakResult calm = run_distributed_campaign(clean);

  // Every slot completed in both runs — the faults cost retries, never
  // records.
  EXPECT_TRUE(chaos.report.all_ok());
  EXPECT_TRUE(calm.report.all_ok());
  ASSERT_EQ(chaos.report.outcomes.size(), kTests);
  ASSERT_EQ(calm.report.outcomes.size(), kTests);

  // Zero lost, zero duplicated: the remote host ran each test exactly
  // once (retransmitted START_TEST commands hit the dedup cache), and the
  // journal checkpointed exactly one row per slot.
  EXPECT_EQ(chaos.remote_tests_run, kTests);
  EXPECT_EQ(calm.remote_tests_run, kTests);
  ASSERT_EQ(chaos.journal_rows.size(), kTests);
  ASSERT_EQ(calm.journal_rows.size(), kTests);

  // Record-for-record agreement with the fault-free run. The replay is
  // deterministic, so perf fields must match exactly; power fields must
  // match wherever the analyzer link was still alive.
  std::size_t chaos_degraded = 0;
  for (std::size_t i = 0; i < kTests; ++i) {
    const db::TestRecord& noisy = chaos.report.outcomes[i].record;
    const db::TestRecord& quiet = calm.report.outcomes[i].record;
    EXPECT_EQ(noisy.trace_name, quiet.trace_name);
    EXPECT_DOUBLE_EQ(noisy.load_proportion, quiet.load_proportion);
    EXPECT_DOUBLE_EQ(noisy.iops, quiet.iops) << "slot " << i;
    EXPECT_DOUBLE_EQ(noisy.mbps, quiet.mbps) << "slot " << i;
    EXPECT_DOUBLE_EQ(noisy.avg_response_ms, quiet.avg_response_ms)
        << "slot " << i;
    EXPECT_TRUE(quiet.power_valid) << "slot " << i;
    // Power is a measurement, not a replay output: retry timing shifts how
    // many samples land in each averaging window, so runs agree to
    // measurement precision rather than bit-for-bit. (The wire itself is
    // lossless at %.17g — the old %.9g encoding used to round these real
    // differences away.)
    EXPECT_NEAR(quiet.avg_watts, kTrueWatts, 1e-6) << "slot " << i;
    if (noisy.power_valid) {
      EXPECT_NEAR(noisy.avg_watts, quiet.avg_watts, 1e-6) << "slot " << i;
      EXPECT_NEAR(noisy.iops_per_watt, quiet.iops_per_watt, 1e-6)
          << "slot " << i;
    } else {
      ++chaos_degraded;
      EXPECT_EQ(noisy.avg_watts, 0.0) << "slot " << i;
      EXPECT_EQ(noisy.iops_per_watt, 0.0) << "slot " << i;
    }
  }
  // The analyzer link died delivering test 3's POWER_RESULT: exactly the
  // first two tests carry measured power, the other eight degrade.
  EXPECT_EQ(chaos_degraded, kTests - 2);
  EXPECT_EQ(chaos.report.degraded(), kTests - 2);
  EXPECT_EQ(calm.report.degraded(), 0u);
  EXPECT_EQ(power_degraded.value() - degraded_before, kTests - 2);

  // The journal recorded the same degradation split.
  std::size_t journal_degraded = 0;
  for (const auto& row : chaos.journal_rows) {
    if (!row.power_valid) ++journal_degraded;
  }
  EXPECT_EQ(journal_degraded, kTests - 2);

  // The resilience machinery demonstrably fired: both hard disconnects,
  // at least one reconnect, retransmissions, keepalives — and at least one
  // retransmitted command answered from the server's dedup cache.
  EXPECT_GE(disconnects.value() - disconnects_before, 3u);  // 2 wl + 1 power
  EXPECT_GE(reconnects.value() - reconnects_before, 1u);
  EXPECT_GE(rpc_retries.value() - retries_before, 1u);
  EXPECT_GE(heartbeats_sent.value() - heartbeats_before, 1u);
  EXPECT_GE(dedup_hits.value() - dedup_before, 1u);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tracer

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const int result = RUN_ALL_TESTS();
  // CI's net-soak job points TRACER_METRICS_OUT at its artifact path; the
  // counter snapshot is the run's observability record.
  if (const char* path = std::getenv("TRACER_METRICS_OUT")) {
    tracer::obs::Registry::global().snapshot().write_json(path);
  }
  return result;
}
