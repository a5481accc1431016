// Fleet coordination scaling (docs/FLEET.md): the same synthetic campaign
// sharded across 1/2/4/8 in-process workers, plus the price of failure —
// steal-recovery latency when a worker is killed mid-shard.
//
// The executor sleeps a fixed 500us per test, standing in for real replay
// work that blocks rather than burns CPU, so worker-count scaling is
// visible even on the 1-core container (docs/PERF.md): sleeps overlap,
// coordination overhead does not. The interesting outputs are the scaling
// ratio (how close to ideal the lease/shard machinery lets the fleet get)
// and max_steal_recovery (how long a killed worker's tests were in limbo).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/campaign_coordinator.h"
#include "core/campaign_worker.h"
#include "net/communicator.h"

namespace {

using namespace tracer;

constexpr std::size_t kTests = 1000;
constexpr auto kTestWork = std::chrono::microseconds(500);

db::TestRecord synth_record(const workload::WorkloadMode& mode) {
  std::this_thread::sleep_for(kTestWork);
  db::TestRecord r;
  r.timestamp = "1970-01-01T00:00:00";
  r.device = "sim-array";
  r.trace_name = "synthetic";
  r.request_size = mode.request_size;
  r.random_ratio = mode.random_ratio;
  r.read_ratio = mode.read_ratio;
  r.load_proportion = mode.load_proportion;
  r.avg_watts = 12.0 + mode.load_proportion;
  r.iops = 1000.0 * mode.load_proportion;
  r.iops_per_watt = r.iops / r.avg_watts;
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

struct FleetRun {
  core::FleetReport report;
  double wall_s = 0.0;
};

/// Run the campaign over `worker_count` clean in-process links; worker
/// `kill_victim` (if >= 0) dies silently after `kill_after` executions.
FleetRun run_fleet(std::size_t worker_count, int kill_victim,
                   std::uint64_t kill_after) {
  const auto dir =
      std::filesystem::temp_directory_path() / "tracer_fleet_bench";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto matrix = make_matrix(kTests);

  std::vector<std::unique_ptr<net::Communicator>> coordinator_side;
  std::vector<core::CampaignCoordinator::WorkerLink> links;
  std::vector<std::unique_ptr<core::CampaignWorkerService>> services;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < worker_count; ++i) {
    auto [coord_end, worker_end] = net::make_channel();
    coordinator_side.push_back(
        std::make_unique<net::Communicator>(std::move(coord_end)));
    links.push_back(
        {"w" + std::to_string(i), coordinator_side.back().get()});
    core::WorkerOptions options;
    options.renew_interval = 0.1;
    if (kill_victim >= 0 && i == static_cast<std::size_t>(kill_victim)) {
      options.kill_switch = [kill_after](std::uint64_t n) {
        return n >= kill_after;
      };
    }
    services.push_back(std::make_unique<core::CampaignWorkerService>(
        synth_record, options));
    auto comm =
        std::make_shared<net::Communicator>(std::move(worker_end));
    threads.emplace_back(
        [service = services.back().get(), comm] { service->serve(*comm); });
  }

  core::CoordinatorOptions options;
  options.lease_duration = 1.0;
  options.shard_size = 32;
  core::CampaignCoordinator coordinator(
      core::CampaignIdentity{"fleet-bench", 0}, dir / "journal.csv", links,
      options);
  const auto start = std::chrono::steady_clock::now();
  FleetRun run;
  run.report = coordinator.run(matrix);
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  coordinator.stop_workers();
  for (auto& thread : threads) thread.join();
  std::filesystem::remove_all(dir);
  return run;
}

}  // namespace

int main() {
  bench::print_header(
      "fleet_scaling: campaign wall-clock vs worker count",
      "sharding a campaign across workers should cut wall-clock near-"
      "linearly while lease overhead stays small");

  util::Table table({"workers", "wall_s", "speedup", "shards", "complete"});
  double base = 0.0;
  std::vector<double> walls;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const FleetRun run = run_fleet(workers, -1, 0);
    if (workers == 1) base = run.wall_s;
    walls.push_back(run.wall_s);
    table.row()
        .add(static_cast<std::uint64_t>(workers))
        .add(run.wall_s, 3)
        .add(base / run.wall_s, 2)
        .add(static_cast<std::uint64_t>(run.report.leases_granted))
        .add(run.report.complete ? "yes" : "NO")
        .done();
  }
  table.print(std::cout);

  // Failure price: worker 1 of 4 dies ~200 tests in; how long were its
  // in-flight tests in limbo before a stolen re-execution journaled them?
  const FleetRun chaos = run_fleet(4, /*kill_victim=*/1, /*kill_after=*/200);
  std::printf(
      "\nsteal recovery (4 workers, 1 killed mid-shard): "
      "max %.3f s from steal to journaled re-execution "
      "(lease %.1f s, %llu stolen, complete=%s)\n",
      chaos.report.max_steal_recovery, 1.0,
      static_cast<unsigned long long>(chaos.report.leases_stolen),
      chaos.report.complete ? "yes" : "NO");

  const bool scaled = walls.front() > walls.back() * 1.5;
  bench::print_verdict(scaled && chaos.report.complete,
                       "8 workers beat 1 worker by >1.5x and the killed-"
                       "worker campaign still completed every test");
  return bench::verdict_exit_code();
}
