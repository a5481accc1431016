// Example: the Fig 3 distributed deployment in miniature. An evaluation
// host drives two workload-generator services — each owning its own disk
// array — over message channels, exactly as the testbed ran them over TCP.
// Each service runs on its own thread; results flow back as PERF_RESULT
// frames and land in one results table.
//
// Each remote is driven through a CampaignRunner, so the distributed
// campaign gets the same failure semantics as the local one: a test that
// fails on the wire is retried, then isolated to a single failed slot
// instead of sinking the whole run.
//
// The links are net::FaultyEndpoints, so the wire can be degraded from the
// command line (docs/RESILIENCE.md):
//
//   distributed_eval [--drop R] [--dup R] [--corrupt R] [--delay R]
//                    [--reorder R] [--fault-seed N] [--disconnect-at N]
//                    [--metrics-out PATH]
//
// With faults enabled the clients turn on heartbeats, liveness deadlines,
// retries, and reconnect; the run must still produce every record exactly
// once. --disconnect-at N hard-closes each remote's first connection at
// frame N to demonstrate reconnect + server-side dedup. --metrics-out
// writes the obs counter snapshot (retries, dedup hits, reconnects, fault
// tallies) as JSON.
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/campaign.h"
#include "core/remote.h"
#include "net/fault.h"
#include "obs/registry.h"
#include "util/table.h"

namespace {

using namespace tracer;

struct CliOptions {
  net::FaultPlan plan;                // rates shared by both directions
  std::uint64_t disconnect_at = 0;    // first connection, server->client
  std::filesystem::path metrics_out;  // empty = don't write

  bool faulty() const {
    return plan.drop_rate > 0 || plan.duplicate_rate > 0 ||
           plan.corrupt_rate > 0 || plan.delay_rate > 0 ||
           plan.reorder_rate > 0 || disconnect_at > 0;
  }
};

CliOptions parse_args(int argc, char** argv) {
  CliOptions options;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--drop") {
      options.plan.drop_rate = std::stod(value(i));
    } else if (arg == "--dup") {
      options.plan.duplicate_rate = std::stod(value(i));
    } else if (arg == "--corrupt") {
      options.plan.corrupt_rate = std::stod(value(i));
    } else if (arg == "--delay") {
      options.plan.delay_rate = std::stod(value(i));
    } else if (arg == "--reorder") {
      options.plan.reorder_rate = std::stod(value(i));
    } else if (arg == "--fault-seed") {
      options.plan.seed = std::stoull(value(i));
    } else if (arg == "--disconnect-at") {
      options.disconnect_at = std::stoull(value(i));
    } else if (arg == "--metrics-out") {
      options.metrics_out = value(i);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: distributed_eval [--drop R] [--dup R] [--corrupt R]\n"
          "            [--delay R] [--reorder R] [--fault-seed N]\n"
          "            [--disconnect-at N] [--metrics-out PATH]\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

/// One reconnectable client<->service link: a service thread accepting
/// fresh endpoint pairs, and a client communicator whose reconnect hook
/// re-pairs through it — the in-process shape of "dial the server again".
class RemoteLink {
 public:
  RemoteLink(core::EvaluationHost& host, const CliOptions& options,
             std::uint64_t salt)
      : options_(options), salt_(salt), service_(host) {
    server_thread_ = std::thread([this] {
      while (auto endpoint = accept()) {
        net::Communicator comm(std::move(*endpoint));
        service_.serve(comm);
      }
    });
    comm_.emplace(connect());
    if (options_.faulty()) {
      comm_->set_heartbeat_interval(0.05);
      comm_->set_liveness_timeout(0.5);
    }
    core::RemoteClientOptions client_options;
    if (options_.faulty()) {
      client_options.max_attempts = 20;
      client_options.backoff.base = 0.005;
      client_options.backoff.cap = 0.05;
      client_options.backoff.jitter = 0.2;
    }
    client_.emplace(*comm_, client_options);
    client_->set_reconnect([this] {
      comm_->reset(connect());
      return true;
    });
  }

  core::RemoteWorkloadClient& client() { return *client_; }

  void shutdown() {
    client_->stop();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
    server_thread_.join();
  }

 private:
  net::FaultyEndpoint connect() {
    const std::uint64_t n = connections_++;
    net::FaultPlan to_server = options_.plan;
    net::FaultPlan to_client = options_.plan;
    to_server.seed = options_.plan.seed * 4099 + salt_ * 2 + n;
    to_client.seed = options_.plan.seed * 8209 + salt_ * 2 + n + 1;
    // Only the first connection carries the scripted hard disconnect; the
    // re-dialed ones stay up (modulo the probabilistic faults).
    to_client.disconnect_at = n == 0 ? options_.disconnect_at : 0;
    auto [client_end, server_end] =
        net::make_faulty_channel(to_server, to_client);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.push_back(std::move(server_end));
    }
    cv_.notify_all();
    return std::move(client_end);
  }

  std::optional<net::FaultyEndpoint> accept() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
    if (pending_.empty()) return std::nullopt;
    auto endpoint = std::move(pending_.front());
    pending_.pop_front();
    return endpoint;
  }

  CliOptions options_;
  std::uint64_t salt_;
  std::uint64_t connections_ = 0;
  core::WorkloadGeneratorService service_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<net::FaultyEndpoint> pending_;
  bool closed_ = false;
  std::optional<net::Communicator> comm_;
  std::optional<core::RemoteWorkloadClient> client_;
  std::thread server_thread_;
};

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_args(argc, argv);

  const auto repo =
      std::filesystem::temp_directory_path() / "tracer-distributed";
  core::EvaluationOptions options;
  options.collection_duration = 3.0;

  // Two storage systems under test, one per "workload generator machine".
  core::EvaluationHost hdd_host(storage::ArrayConfig::hdd_testbed(6),
                                repo / "hdd", options);
  core::EvaluationHost ssd_host(storage::ArrayConfig::ssd_testbed(4),
                                repo / "ssd", options);

  RemoteLink hdd_link(hdd_host, cli, /*salt=*/1);
  RemoteLink ssd_link(ssd_host, cli, /*salt=*/2);

  workload::WorkloadMode base;
  base.request_size = 16 * kKiB;
  base.read_ratio = 0.5;
  base.random_ratio = 0.5;
  std::vector<workload::WorkloadMode> modes;
  for (double load : {0.3, 0.6, 1.0}) {
    workload::WorkloadMode mode = base;
    mode.load_proportion = load;
    modes.push_back(mode);
  }

  // One runner per remote; a generator channel serves one test at a time,
  // so each runner drives its remote single-threaded while the two remotes
  // proceed in parallel — Fig 3's multi-machine concurrency.
  auto remote_executor = [](core::RemoteWorkloadClient& remote) {
    return [&remote](const workload::WorkloadMode& mode) {
      if (!remote.configure(mode)) {
        throw std::runtime_error("remote: configure failed");
      }
      const auto record = remote.start(/*timeout=*/600.0);
      if (!record) throw std::runtime_error("remote: start failed");
      return *record;
    };
  };
  core::CampaignOptions campaign_options;
  campaign_options.threads = 1;
  campaign_options.max_retries = 1;
  core::CampaignRunner hdd_runner(remote_executor(hdd_link.client()),
                                  hdd_host.array_config().name,
                                  campaign_options);
  core::CampaignRunner ssd_runner(remote_executor(ssd_link.client()),
                                  ssd_host.array_config().name,
                                  campaign_options);

  core::CampaignReport hdd_report;
  core::CampaignReport ssd_report;
  std::thread hdd_campaign([&] { hdd_report = hdd_runner.run(modes); });
  std::thread ssd_campaign([&] { ssd_report = ssd_runner.run(modes); });
  hdd_campaign.join();
  ssd_campaign.join();

  hdd_link.shutdown();
  ssd_link.shutdown();

  util::Table table({"host", "mode", "IOPS", "MBPS", "watts", "IOPS/Watt"});
  for (const auto* report : {&hdd_report, &ssd_report}) {
    for (std::size_t i = 0; i < report->outcomes.size(); ++i) {
      const core::TestOutcome& outcome = report->outcomes[i];
      if (!outcome.ok()) {
        std::fprintf(stderr, "test %s failed: %s\n",
                     modes[i].to_string().c_str(), outcome.error.c_str());
        continue;
      }
      const db::TestRecord& record = outcome.record;
      table.row()
          .add(record.device)
          .add(modes[i].to_string())
          .add(record.iops, 1)
          .add(record.mbps, 2)
          .add(record.avg_watts, 1)
          .add(record.iops_per_watt, 3)
          .done();
    }
  }

  std::printf("distributed evaluation over message channels (Fig 3):\n");
  table.print(std::cout);
  std::printf("\nrecords: hdd=%zu, ssd=%zu\n", hdd_report.completed(),
              ssd_report.completed());

  if (cli.faulty()) {
    auto& reg = obs::Registry::global();
    auto count = [&reg](const char* name) {
      return static_cast<unsigned long long>(reg.counter(name).value());
    };
    std::printf(
        "resilience: %llu retries, %llu dedup hits, %llu reconnects, "
        "%llu dropped, %llu corrupted, %llu disconnects\n",
        count("net.rpc.retries"), count("net.rpc.dedup_hits"),
        count("net.rpc.reconnects"), count("net.fault.dropped"),
        count("net.fault.corrupted"), count("net.fault.disconnects"));
  }
  if (!cli.metrics_out.empty()) {
    obs::Registry::global().snapshot().write_json(cli.metrics_out);
    std::printf("metrics written to %s\n", cli.metrics_out.string().c_str());
  }
  return hdd_report.all_ok() && ssd_report.all_ok() ? 0 : 1;
}
