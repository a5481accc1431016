// Fault-injection soak (docs/RESILIENCE.md): a full distributed campaign —
// evaluation host driving a remote workload generator over
// net::FaultyEndpoint links with drops, duplicates, bit corruption, and
// one hard disconnect per direction — must complete with ZERO lost or
// duplicated records. The run is compared record-for-record against the
// same campaign over clean links; they must agree on every field.
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
#include "core/remote.h"
#include "db/journal.h"
#include "net/communicator.h"
#include "net/fault.h"
#include "obs/registry.h"

namespace tracer {
namespace {

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

  result.journal_rows = db::CampaignJournal::load(config.journal_path);
  result.remote_tests_run = replay_calls.value() - replays_before;
  return result;
}

TEST(NetSoak, LossyCampaignLosesNothingAndMatchesCleanRun) {
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

  const std::uint64_t dedup_before = dedup_hits.value();
  const std::uint64_t retries_before = rpc_retries.value();
  const std::uint64_t reconnects_before = reconnects.value();
  const std::uint64_t disconnects_before = disconnects.value();
  const std::uint64_t heartbeats_before = heartbeats_sent.value();

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

  // Record-for-record agreement with the fault-free run. The replay and
  // its metering are deterministic and the wire is lossless at %.17g, so
  // every field must match exactly, power included.
  for (std::size_t i = 0; i < kTests; ++i) {
    EXPECT_EQ(chaos.report.outcomes[i].record, calm.report.outcomes[i].record)
        << "slot " << i;
    EXPECT_EQ(chaos.journal_rows[i], calm.journal_rows[i]) << "row " << i;
    EXPECT_GT(calm.report.outcomes[i].record.avg_watts, 0.0) << "slot " << i;
  }

  // The resilience machinery demonstrably fired: both hard disconnects,
  // at least one reconnect, retransmissions, keepalives — and at least one
  // retransmitted command answered from the server's dedup cache.
  EXPECT_GE(disconnects.value() - disconnects_before, 2u);
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
