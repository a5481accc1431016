// Example: a fleet-scale campaign (docs/FLEET.md) in miniature. A
// CampaignCoordinator shards a synthetic test matrix across N in-process
// CampaignWorkerService threads under time-bounded leases, merges their
// streamed records into one checksummed journal, and survives everything
// the command line throws at it:
//
//   fleet_eval [--tests N] [--workers N] [--shard-size N] [--lease S]
//              [--drop R] [--dup R] [--kill W@N]... [--restart-at N]
//              [--journal PATH] [--metrics-out PATH]
//
//   --drop/--dup     degrade BOTH directions of every worker link
//   --kill W@N       worker W dies silently after executing N tests
//                    (repeatable; like a SIGKILL — no farewell frame)
//   --restart-at N   "kill" the coordinator once N records have merged,
//                    then restart it: the successor adopts the same links,
//                    replays the journal, and finishes only what's missing
//   --journal PATH   resume an interrupted campaign from its journal
//
// However the run is abused, the journal ends with exactly one record per
// test. --metrics-out writes the obs snapshot (fleet.leases.*,
// fleet.workers.*, fleet.records.*) as JSON.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign_coordinator.h"
#include "core/campaign_worker.h"
#include "db/journal.h"
#include "net/fault.h"
#include "obs/registry.h"
#include "util/table.h"

namespace {

using namespace tracer;

struct CliOptions {
  std::size_t tests = 2000;
  std::size_t workers = 4;
  std::size_t shard_size = 64;
  double lease = 2.0;
  net::FaultPlan plan;  // rates shared by both directions
  std::vector<std::pair<std::size_t, std::uint64_t>> kills;  // worker@count
  std::size_t restart_at = 0;  // 0 = coordinator runs straight through
  std::filesystem::path journal = "fleet_journal.csv";
  std::filesystem::path metrics_out;  // empty = don't write
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
    if (arg == "--tests") {
      options.tests = std::stoul(value(i));
    } else if (arg == "--workers") {
      options.workers = std::stoul(value(i));
    } else if (arg == "--shard-size") {
      options.shard_size = std::stoul(value(i));
    } else if (arg == "--lease") {
      options.lease = std::stod(value(i));
    } else if (arg == "--drop") {
      options.plan.drop_rate = std::stod(value(i));
    } else if (arg == "--dup") {
      options.plan.duplicate_rate = std::stod(value(i));
    } else if (arg == "--kill") {
      const std::string spec = value(i);
      const auto at = spec.find('@');
      if (at == std::string::npos) {
        std::fprintf(stderr, "--kill wants W@N, got %s\n", spec.c_str());
        std::exit(2);
      }
      options.kills.emplace_back(std::stoul(spec.substr(0, at)),
                                 std::stoull(spec.substr(at + 1)));
    } else if (arg == "--restart-at") {
      options.restart_at = std::stoul(value(i));
    } else if (arg == "--journal") {
      options.journal = value(i);
    } else if (arg == "--metrics-out") {
      options.metrics_out = value(i);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return options;
}

// Deterministic synthetic executor: the record is a pure function of the
// mode, so stolen-shard re-executions merge to identical rows.
db::TestRecord synth_record(const workload::WorkloadMode& mode) {
  db::TestRecord r;
  r.timestamp = "1970-01-01T00:00:00";
  r.device = "sim-array";
  r.trace_name = "synthetic";
  r.request_size = mode.request_size;
  r.random_ratio = mode.random_ratio;
  r.read_ratio = mode.read_ratio;
  r.load_proportion = mode.load_proportion;
  const double x = static_cast<double>(mode.request_size) / 512.0 +
                   mode.random_ratio * 17.0 + mode.read_ratio * 131.0;
  r.avg_amps = 1.0 + mode.load_proportion / 3.0;
  r.avg_volts = 12.0;
  r.avg_watts = r.avg_amps * r.avg_volts;
  r.joules = r.avg_watts * 30.0;
  r.iops = 1000.0 + x;
  r.mbps = 80.0 + x / 7.0;
  r.avg_response_ms = 1.0 + mode.load_proportion * 2.0;
  r.iops_per_watt = r.iops / r.avg_watts;
  r.mbps_per_kilowatt = r.mbps / (r.avg_watts / 1000.0);
  return r;
}

std::vector<workload::WorkloadMode> make_matrix(std::size_t n) {
  std::vector<workload::WorkloadMode> matrix;
  matrix.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workload::WorkloadMode mode;
    mode.request_size = 512 << (i % 6);
    mode.random_ratio = static_cast<double>(i % 5) / 4.0;
    mode.read_ratio = static_cast<double>(i % 3) / 2.0;
    mode.load_proportion = 0.2 + 0.2 * static_cast<double>(i % 4);
    matrix.push_back(mode);
  }
  return matrix;
}

void print_report(const char* phase, const core::FleetReport& report) {
  std::printf(
      "%s: %s  merged=%zu resumed=%zu deduped=%zu  leases granted=%llu "
      "expired=%llu stolen=%llu  workers dead=%zu  %.2fs\n",
      phase, report.complete ? "complete" : "incomplete", report.merged,
      report.resumed, report.deduped,
      static_cast<unsigned long long>(report.leases_granted),
      static_cast<unsigned long long>(report.leases_expired),
      static_cast<unsigned long long>(report.leases_stolen),
      report.workers_dead, report.elapsed);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_args(argc, argv);
  const auto matrix = make_matrix(cli.tests);

  std::vector<std::unique_ptr<net::Communicator>> coordinator_side;
  std::vector<core::CampaignCoordinator::WorkerLink> links;
  std::vector<std::unique_ptr<core::CampaignWorkerService>> services;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < cli.workers; ++i) {
    auto [coord_end, worker_end] = net::make_channel();
    net::FaultPlan to_worker = cli.plan;
    to_worker.seed = 1000 + i;
    net::FaultPlan to_coordinator = cli.plan;
    to_coordinator.seed = 2000 + i;
    coordinator_side.push_back(std::make_unique<net::Communicator>(
        net::FaultyEndpoint(std::move(coord_end), to_worker)));
    links.push_back(
        {"w" + std::to_string(i), coordinator_side.back().get()});

    core::WorkerOptions worker_options;
    worker_options.renew_interval = cli.lease / 10.0;
    for (const auto& [victim, count] : cli.kills) {
      if (victim == i) {
        worker_options.kill_switch = [count = count](std::uint64_t n) {
          return n >= count;
        };
      }
    }
    services.push_back(std::make_unique<core::CampaignWorkerService>(
        synth_record, worker_options));
    auto comm = std::make_shared<net::Communicator>(
        net::FaultyEndpoint(std::move(worker_end), to_coordinator));
    threads.emplace_back(
        [service = services.back().get(), comm] { service->serve(*comm); });
  }

  core::CoordinatorOptions options;
  options.lease_duration = cli.lease;
  options.shard_size = cli.shard_size;
  const core::CampaignIdentity identity{"fleet-eval", 0};

  if (cli.restart_at != 0) {
    // Phase 1: run until the kill point, then destroy the coordinator with
    // workers still streaming — every merged record is already durable.
    core::CoordinatorOptions phase1 = options;
    phase1.stop_after_merged = cli.restart_at;
    core::CampaignCoordinator doomed(identity, cli.journal, links, phase1);
    print_report("phase 1", doomed.run(matrix));
  }

  // The (restarted, when --restart-at) coordinator adopts the same links,
  // replays the journal, and re-issues exactly the missing tests.
  core::CampaignCoordinator coordinator(identity, cli.journal, links,
                                        options);
  const core::FleetReport report = coordinator.run(matrix);
  print_report(cli.restart_at != 0 ? "phase 2" : "run", report);
  coordinator.stop_workers();
  for (auto& thread : threads) thread.join();

  util::Table table({"worker", "shards", "tests", "acked", "completed",
                     "abandoned", "fate"});
  for (std::size_t i = 0; i < services.size(); ++i) {
    const core::WorkerStats& s = services[i]->stats();
    table.row()
        .add(links[i].name)
        .add(s.shards_accepted)
        .add(s.tests_executed)
        .add(s.records_acked)
        .add(s.shards_completed)
        .add(s.shards_abandoned)
        .add(s.killed ? "killed" : "survived")
        .done();
  }
  table.print(std::cout);

  const auto rows = db::CampaignJournal::load(cli.journal);
  std::printf("journal: %zu rows for %zu tests -> %s\n", rows.size(),
              cli.tests, rows.size() == cli.tests ? "exact" : "MISMATCH");

  if (!cli.metrics_out.empty()) {
    obs::Registry::global().snapshot().write_json(cli.metrics_out);
    std::printf("metrics written to %s\n", cli.metrics_out.string().c_str());
  }
  return rows.size() == cli.tests && report.complete ? 0 : 1;
}
