// Fleet chaos soak (docs/FLEET.md): a 10,000-test campaign sharded across 8
// in-process workers over lossy links (5% drop, 2% duplicate, both
// directions), with seeded worker kills at three campaign phases AND a
// coordinator kill/restart mid-campaign. The merged journal must contain
// EXACTLY one record per test and be bit-identical in content to a clean
// single-host run of the same matrix; work stealing must have fired
// (fleet.leases.stolen > 0).
//
// Has its own main(): after the tests run, the process-global obs counter
// snapshot — fleet.leases.*, fleet.workers.*, fleet.records.* — is written
// to $TRACER_METRICS_OUT (the CI fleet-soak job uploads it as an artifact).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign_coordinator.h"
#include "core/campaign_worker.h"
#include "db/journal.h"
#include "net/communicator.h"
#include "net/fault.h"
#include "obs/registry.h"

// ThreadSanitizer multiplies the soak's wall-clock severalfold; a reduced
// matrix keeps the tsan preset's full-suite run tractable while exercising
// the identical protocol machinery. Plain and ASan/UBSan builds (the CI
// fleet-soak job) run the full 10,000.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TRACER_FLEET_SOAK_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define TRACER_FLEET_SOAK_TSAN 1
#endif

namespace tracer::core {
namespace {

namespace fs = std::filesystem;

#ifdef TRACER_FLEET_SOAK_TSAN
constexpr std::size_t kTests = 2500;
#else
constexpr std::size_t kTests = 10000;
#endif
constexpr std::size_t kWorkers = 8;

// Deterministic synthetic executor: the record is a pure function of the
// mode, so re-executions of a stolen shard produce byte-identical rows and
// the fleet-vs-clean comparison below can demand exact equality.
db::TestRecord synth_record(const workload::WorkloadMode& mode) {
  db::TestRecord r;
  r.timestamp = "2026-08-08T00:00:00";
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

TEST(FleetSoak, ChaosCampaignMatchesCleanRunExactly) {
  const fs::path dir = fs::temp_directory_path() / "tracer_fleet_soak";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path journal_path = dir / "fleet_journal.csv";
  const auto matrix = make_matrix(kTests);

  auto& stolen_counter =
      obs::Registry::global().counter("fleet.leases.stolen");
  auto& deduped_counter =
      obs::Registry::global().counter("fleet.records.deduped");
  const std::uint64_t stolen_before = stolen_counter.value();
  const std::uint64_t deduped_before = deduped_counter.value();

  // 8 workers over lossy links: 5% drop and 2% duplicate on BOTH
  // directions, independent seeded plans per direction per worker.
  // Workers 1, 3, 5 carry seeded kill switches that fire at three phases
  // of the campaign (early / mid / late in their own execution streams).
  std::vector<std::unique_ptr<net::Communicator>> coordinator_side;
  std::vector<CampaignCoordinator::WorkerLink> links;
  std::vector<std::unique_ptr<CampaignWorkerService>> services;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    auto [coord_end, worker_end] = net::make_channel();
    net::FaultPlan to_worker;
    to_worker.drop_rate = 0.05;
    to_worker.duplicate_rate = 0.02;
    to_worker.seed = 1000 + i;
    net::FaultPlan to_coordinator = to_worker;
    to_coordinator.seed = 2000 + i;
    coordinator_side.push_back(std::make_unique<net::Communicator>(
        net::FaultyEndpoint(std::move(coord_end), to_worker)));
    links.push_back({"w" + std::to_string(i), coordinator_side.back().get()});

    WorkerOptions options;
    options.renew_interval = 0.1;
    options.ack_timeout = 0.05;
    options.ack_attempts = 400;  // rides out loss AND the restart window
    if (i == 1) {
      options.kill_switch = [](std::uint64_t n) { return n >= 100; };
    } else if (i == 3) {
      options.kill_switch = [](std::uint64_t n) { return n >= kTests / 25; };
    } else if (i == 5) {
      options.kill_switch = [](std::uint64_t n) { return n >= kTests / 12; };
    }
    services.push_back(
        std::make_unique<CampaignWorkerService>(synth_record, options));
    auto comm = std::make_shared<net::Communicator>(
        net::FaultyEndpoint(std::move(worker_end), to_coordinator));
    threads.emplace_back(
        [service = services.back().get(), comm] { service->serve(*comm); });
  }

  CoordinatorOptions options;
  options.lease_duration = 3.0;
  options.shard_size = 64;

  // Phase 1: the coordinator is "killed" (returns, object destroyed) once
  // half the campaign has merged, mid-flight, with workers still streaming.
  CoordinatorOptions phase1 = options;
  phase1.stop_after_merged = kTests / 2;
  FleetReport report1;
  {
    CampaignCoordinator coordinator(CampaignIdentity{"chaos-soak", 0},
                                    journal_path, links, phase1);
    report1 = coordinator.run(matrix);
  }
  EXPECT_FALSE(report1.complete);
  EXPECT_GE(report1.merged, kTests / 2);
  EXPECT_LT(report1.merged, kTests);

  // Phase 2: a restarted coordinator adopts the same links, replays the
  // (recovered, checksummed) journal, and finishes exactly what's missing.
  CampaignCoordinator restarted(CampaignIdentity{"chaos-soak", 0},
                                journal_path, links, options);
  const FleetReport report2 = restarted.run(matrix);
  EXPECT_TRUE(report2.complete);
  EXPECT_FALSE(report2.stranded);
  EXPECT_EQ(report2.resumed + report2.merged, kTests);
  restarted.stop_workers();
  for (auto& thread : threads) thread.join();

  // All three seeded kills fired; the fleet absorbed them by stealing.
  EXPECT_TRUE(services[1]->stats().killed);
  EXPECT_TRUE(services[3]->stats().killed);
  EXPECT_TRUE(services[5]->stats().killed);
  EXPECT_GT(stolen_counter.value() - stolen_before, 0u);
  // Lossy links retransmit; dedup visibly rejected the duplicates.
  EXPECT_GT(deduped_counter.value() - deduped_before, 0u);

  // ZERO lost, ZERO duplicated: exactly one journal row per test.
  auto fleet_rows = db::CampaignJournal::load(journal_path);
  ASSERT_EQ(fleet_rows.size(), kTests);
  std::sort(fleet_rows.begin(), fleet_rows.end(),
            [](const db::TestRecord& x, const db::TestRecord& y) {
              return x.test_id < y.test_id;
            });
  for (std::size_t i = 0; i < kTests; ++i) {
    ASSERT_EQ(fleet_rows[i].test_id, i) << "lost or duplicated test";
  }

  // Bit-identical to a clean single-host run: same matrix, same executor,
  // straight into a journal with no wire, no faults, no fleet.
  db::JournalMerger clean(dir / "clean_journal.csv");
  for (std::uint32_t i = 0; i < kTests; ++i) {
    db::TestRecord record = synth_record(matrix[i]);
    record.test_id = i;
    ASSERT_TRUE(clean.append_unique(record));
  }
  const auto clean_rows =
      db::CampaignJournal::load(dir / "clean_journal.csv");
  ASSERT_EQ(clean_rows.size(), kTests);
  for (std::size_t i = 0; i < kTests; ++i) {
    ASSERT_EQ(fleet_rows[i], clean_rows[i])
        << "fleet record " << i << " diverged from the clean run";
  }

  fs::remove_all(dir);
}

}  // namespace
}  // namespace tracer::core

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  const int result = RUN_ALL_TESTS();
  // CI's fleet-soak job points TRACER_METRICS_OUT at its artifact path;
  // the counter snapshot (fleet.*, net.*) is the run's observability
  // record.
  if (const char* path = std::getenv("TRACER_METRICS_OUT")) {
    tracer::obs::Registry::global().snapshot().write_json(path);
  }
  return result;
}
