// Fleet campaign coordinator / worker tests (docs/FLEET.md): wire codec
// strictness, lease arithmetic on an injected monotonic clock (a wall-clock
// jump must not expire leases), work stealing from a partitioned
// (alive-but-unreachable) worker via net::FaultyEndpoint with late-duplicate
// rejection, worker death by kill switch, and coordinator kill/restart
// resume — zero lost, zero duplicated — and journal identity shared with
// CampaignRunner, so either campaign driver finishes the other's journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/campaign_coordinator.h"
#include "core/campaign_worker.h"
#include "core/fleet_wire.h"
#include "db/journal.h"
#include "net/communicator.h"
#include "net/fault.h"
#include "obs/registry.h"
#include "util/clock.h"
#include "util/sync.h"

namespace tracer::core {
namespace {

namespace fs = std::filesystem;
using std::chrono::steady_clock;

// Deterministic synthetic executor: the record is a pure function of the
// mode, so any two executions of the same test — on different workers, in
// different runs — produce byte-identical journal rows.
db::TestRecord synth_record(const workload::WorkloadMode& mode) {
  db::TestRecord r;
  r.timestamp = "2026-08-08T00:00:00";
  r.device = "sim-array";
  r.trace_name = "synthetic";
  r.request_size = mode.request_size;
  r.random_ratio = mode.random_ratio;
  r.read_ratio = mode.read_ratio;
  r.load_proportion = mode.load_proportion;
  const double x = static_cast<double>(mode.request_size) / 4096.0 +
                   mode.random_ratio * 10.0 + mode.read_ratio * 100.0;
  r.avg_amps = 1.0 + mode.load_proportion;
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
    mode.request_size = 4096 * (1 + i % 8);
    mode.random_ratio = static_cast<double>(i % 5) / 4.0;
    mode.read_ratio = static_cast<double>(i % 3) / 2.0;
    mode.load_proportion = 0.25 + 0.25 * static_cast<double>(i % 4);
    matrix.push_back(mode);
  }
  return matrix;
}

// Files that are not this campaign's journal: plain text, and a results
// export in the earlier 18-column layout (no row checksum).
const char* const kForeignFiles[] = {
    "not a journal\njust some notes\n",
    "test_id,timestamp,device,trace,request_size,random_ratio,read_ratio,"
    "load_proportion,avg_amps,avg_volts,avg_watts,joules,iops,mbps,"
    "avg_response_ms,iops_per_watt,mbps_per_kilowatt,power_valid\n"
    "1,2026-07-07T00:00:00Z,raid5-hdd6,raid5-hdd6_rs4K_rnd50_rd0.replay,4096,"
    "0.5,0,1,0.35999999999999999,220.09999999999999,79.5,318,"
    "123.40000000000001,0.505,18.199999999999999,1.552,6.3499999999999996,1\n",
};

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / "tracer_fleet_tests" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Poll `comm` until a message arrives or `timeout` passes (test side of a
/// hand-driven worker; pumps FaultyEndpoint holds as a side effect).
std::optional<net::Message> poll_for(net::Communicator& comm,
                                     Seconds timeout = 5.0) {
  const auto deadline = steady_clock::now() +
                        std::chrono::duration<double>(timeout);
  while (steady_clock::now() < deadline) {
    if (auto message = comm.poll()) return message;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return std::nullopt;
}

TEST(FleetWire, ShardAssignRoundTripsAndRejectsMangling) {
  ShardAssignment assign;
  assign.fingerprint = 0xfeedbeefcafe1234ull;
  assign.shard_id = 7;
  assign.epoch = 42;
  assign.lease = 2.5;
  const auto matrix = make_matrix(5);
  for (std::uint32_t i = 0; i < matrix.size(); ++i) {
    assign.tests.push_back(FleetTest{i * 3, matrix[i]});
  }
  auto message = encode_shard_assign(assign);
  auto decoded = decode_shard_assign(message);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, assign);

  // Strict: a missing test field, a field-count mismatch, or an oversized
  // count must all be rejected, not default-filled.
  auto missing = message;
  missing.fields.erase("t2");
  EXPECT_FALSE(decode_shard_assign(missing).has_value());
  auto extra = message;
  extra.set("bonus", "1");
  EXPECT_FALSE(decode_shard_assign(extra).has_value());
  auto oversized = message;
  oversized.set_u64("count", kMaxShardTests + 1);
  EXPECT_FALSE(decode_shard_assign(oversized).has_value());
}

TEST(FleetWire, ShardRecordRoundTripsExactDoubles) {
  ShardRecord record;
  record.fingerprint = 99;
  record.shard_id = 3;
  record.epoch = 5;
  record.index = 1234;
  record.record = synth_record(make_matrix(17).back());
  // Adversarial double: needs all 17 significant digits to round-trip.
  record.record.iops = 1000.0 + 1.0 / 3.0;
  record.record.test_id = record.index;

  auto decoded = decode_shard_record(encode_shard_record(record));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->record, record.record);  // bit-exact, incl. iops
  EXPECT_EQ(decoded->index, record.index);
  EXPECT_EQ(decoded->record.test_id, record.index);

  auto message = encode_shard_record(record);
  message.fields.erase("fleet.index");
  EXPECT_FALSE(decode_shard_record(message).has_value());
}

TEST(FleetWire, FingerprintIsOrderSensitive) {
  auto matrix = make_matrix(6);
  const auto fp = CampaignIdentity::fingerprint_of(matrix);
  EXPECT_EQ(fp, CampaignIdentity::fingerprint_of(matrix));  // deterministic
  std::swap(matrix[0], matrix[5]);
  // Test identity is the matrix INDEX: reordering is a different campaign.
  EXPECT_NE(fp, CampaignIdentity::fingerprint_of(matrix));
}

TEST(FleetWire, LeaseRenewAndDoneAreStrict) {
  LeaseRenew renew{11, 2, 3, 40};
  auto decoded = decode_lease_renew(encode_lease_renew(renew));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->completed, 40u);
  auto mangled = encode_lease_renew(renew);
  mangled.set("junk", "x");
  EXPECT_FALSE(decode_lease_renew(mangled).has_value());

  ShardDone done{11, 2, 3};
  ASSERT_TRUE(decode_shard_done(encode_shard_done(done)).has_value());
  auto mangled_done = encode_shard_done(done);
  mangled_done.fields.erase("epoch");
  EXPECT_FALSE(decode_shard_done(mangled_done).has_value());

  EXPECT_TRUE(ack_revoked(make_shard_ack(1, true)));
  EXPECT_FALSE(ack_revoked(make_shard_ack(1, false)));
  EXPECT_FALSE(ack_revoked(net::make_ack(1)));
}

// Satellite: lease/heartbeat deadline arithmetic runs on an injected
// monotonic clock. Real (wall) time passing while the monotonic clock
// stands still — the observable effect of an NTP step or suspend/resume on
// wall-clock-based timers — must not expire a single lease; only monotonic
// progress may.
TEST(FleetLease, WallClockJumpCannotExpireLease) {
  const fs::path dir = fresh_dir("shifted_clock");
  util::ManualClock clock(1000.0);

  auto [coord_side, worker_side] = net::make_channel();
  net::Communicator coord_comm(std::move(coord_side));
  net::Communicator worker_comm(std::move(worker_side));

  CoordinatorOptions options;
  options.lease_duration = 5.0;
  options.shard_size = 4;
  options.clock = &clock;
  const auto matrix = make_matrix(4);
  CampaignCoordinator coordinator(
      CampaignIdentity{"shifted", 0}, dir / "journal.csv",
      {{"w0", &coord_comm}}, options);
  coordinator.begin(matrix);
  EXPECT_TRUE(coordinator.step());  // assigns the one shard

  auto assign_msg = poll_for(worker_comm);
  ASSERT_TRUE(assign_msg.has_value());
  auto assign = decode_shard_assign(*assign_msg);
  ASSERT_TRUE(assign.has_value());
  worker_comm.reply(*assign_msg, net::make_ack(assign_msg->sequence));

  // A large slice of WALL time passes (the worker is silent throughout),
  // but the monotonic clock has not moved: the lease must survive.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (int i = 0; i < 10; ++i) coordinator.step();
  EXPECT_EQ(coordinator.report().leases_expired, 0u);
  EXPECT_EQ(coordinator.report().leases_stolen, 0u);

  // A keepalive pushes the deadline out from the CURRENT monotonic time.
  clock.advance(4.0);  // t=1004, deadline was 1005
  LeaseRenew renew{assign->fingerprint, assign->shard_id, assign->epoch, 0};
  worker_comm.send_oob(encode_lease_renew(renew));
  for (int i = 0; i < 10 && coordinator.report().leases_expired == 0; ++i) {
    coordinator.step();
  }
  clock.advance(4.0);  // t=1008 < renewed deadline 1009: still held
  coordinator.step();
  EXPECT_EQ(coordinator.report().leases_expired, 0u);

  // Negative control: monotonic progress past the deadline DOES expire it.
  clock.advance(1.5);  // t=1009.5 > 1009
  coordinator.step();
  EXPECT_EQ(coordinator.report().leases_expired, 1u);
  EXPECT_EQ(coordinator.report().leases_stolen, 1u);

  // The worker turned suspect; after a further lease_duration of silence it
  // is re-admitted and the stolen shard is re-issued under a fresh epoch.
  clock.advance(options.lease_duration);
  coordinator.step();
  auto reissue_msg = poll_for(worker_comm);
  ASSERT_TRUE(reissue_msg.has_value());
  auto reissue = decode_shard_assign(*reissue_msg);
  ASSERT_TRUE(reissue.has_value());
  EXPECT_NE(reissue->epoch, assign->epoch);
  worker_comm.reply(*reissue_msg, net::make_ack(reissue_msg->sequence));

  // A LATE record under the stolen epoch still merges (work is work — the
  // test index is the identity), but the ack says revoked so the straggler
  // stops burning time on the stale shard.
  ShardRecord late;
  late.fingerprint = assign->fingerprint;
  late.shard_id = assign->shard_id;
  late.epoch = assign->epoch;
  late.index = assign->tests[0].index;
  late.record = synth_record(assign->tests[0].mode);
  worker_comm.send(encode_shard_record(late));
  for (int i = 0; i < 10; ++i) coordinator.step();
  auto late_ack = poll_for(worker_comm);
  ASSERT_TRUE(late_ack.has_value());
  EXPECT_TRUE(ack_revoked(*late_ack));
  ASSERT_NE(coordinator.journal(), nullptr);
  EXPECT_TRUE(coordinator.journal()->contains(assign->tests[0].index));
}

// Satellite: a PARTITIONED worker — alive, executing, but its frames held
// by the network (FaultyEndpoint delay) — must have its shard stolen and
// reassigned, and its late duplicates must be rejected by the journal merge
// (observable on fleet.records.deduped) with revoked acks.
TEST(FleetSteal, PartitionedWorkerShardStolenAndDuplicatesRejected) {
  const fs::path dir = fresh_dir("partition");
  auto& deduped_counter =
      obs::Registry::global().counter("fleet.records.deduped");
  const std::uint64_t deduped_before = deduped_counter.value();

  // Worker A's outbound frames are ALL held for 1 s — far beyond the lease.
  auto [ca, a_side] = net::make_channel();
  auto [cb, b_side] = net::make_channel();
  net::FaultPlan partition;
  partition.delay_rate = 1.0;
  partition.delay = 1.0;
  partition.seed = 7;
  net::Communicator coord_a(std::move(ca));
  net::Communicator coord_b(std::move(cb));
  net::Communicator worker_a(
      net::FaultyEndpoint(std::move(a_side), partition));
  net::Communicator worker_b(std::move(b_side));

  CoordinatorOptions options;
  options.lease_duration = 0.1;
  options.shard_size = 4;
  const auto matrix = make_matrix(4);
  CampaignCoordinator coordinator(
      CampaignIdentity{"partition", 0}, dir / "journal.csv",
      {{"a", &coord_a}, {"b", &coord_b}}, options);
  coordinator.begin(matrix);
  coordinator.step();  // one shard -> worker A (first idle)

  auto assign_a_msg = poll_for(worker_a);
  ASSERT_TRUE(assign_a_msg.has_value());
  auto assign_a = decode_shard_assign(*assign_a_msg);
  ASSERT_TRUE(assign_a.has_value());
  ASSERT_EQ(assign_a->tests.size(), 4u);
  // A acks and streams its first record — all held by the partition.
  worker_a.reply(*assign_a_msg, net::make_ack(assign_a_msg->sequence));
  ShardRecord first;
  first.fingerprint = assign_a->fingerprint;
  first.shard_id = assign_a->shard_id;
  first.epoch = assign_a->epoch;
  first.index = assign_a->tests[0].index;
  first.record = synth_record(assign_a->tests[0].mode);
  worker_a.send(encode_shard_record(first));

  // The coordinator hears nothing; the lease lapses and the shard moves.
  const auto steal_deadline =
      steady_clock::now() + std::chrono::seconds(5);
  while (coordinator.report().leases_stolen == 0 &&
         steady_clock::now() < steal_deadline) {
    coordinator.step();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(coordinator.report().leases_stolen, 1u);
  EXPECT_GE(coordinator.report().leases_expired, 1u);

  // Worker B picks the re-issued shard up and completes all four tests.
  coordinator.step();
  auto assign_b_msg = poll_for(worker_b);
  ASSERT_TRUE(assign_b_msg.has_value());
  auto assign_b = decode_shard_assign(*assign_b_msg);
  ASSERT_TRUE(assign_b.has_value());
  EXPECT_NE(assign_b->epoch, assign_a->epoch);
  ASSERT_EQ(assign_b->tests.size(), 4u);
  worker_b.reply(*assign_b_msg, net::make_ack(assign_b_msg->sequence));
  for (const FleetTest& test : assign_b->tests) {
    ShardRecord out;
    out.fingerprint = assign_b->fingerprint;
    out.shard_id = assign_b->shard_id;
    out.epoch = assign_b->epoch;
    out.index = test.index;
    out.record = synth_record(test.mode);
    worker_b.send(encode_shard_record(out));
    const auto merge_deadline =
        steady_clock::now() + std::chrono::seconds(5);
    std::optional<net::Message> ack;
    while (!(ack = worker_b.poll()) &&
           steady_clock::now() < merge_deadline) {
      coordinator.step();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(ack.has_value());
    EXPECT_FALSE(ack_revoked(*ack));  // B holds the live lease
  }
  ASSERT_NE(coordinator.journal(), nullptr);
  EXPECT_EQ(coordinator.journal()->size(), 4u);

  // Eventually the partition releases A's held record: a late DUPLICATE of
  // a test B already merged. It must be rejected by dedup (counted on
  // fleet.records.deduped) and acked revoked.
  const auto dup_deadline = steady_clock::now() + std::chrono::seconds(10);
  while (coordinator.journal()->deduped() == 0 &&
         steady_clock::now() < dup_deadline) {
    worker_a.poll();  // pumps A's FaultyEndpoint so held frames release
    coordinator.step();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(coordinator.journal()->deduped(), 1u);
  EXPECT_GE(deduped_counter.value() - deduped_before, 1u);
  auto late_ack = poll_for(worker_a);
  ASSERT_TRUE(late_ack.has_value());
  EXPECT_TRUE(ack_revoked(*late_ack));

  // Exactly one journal row per test, despite the duplicate arrival.
  const auto rows = db::CampaignJournal::load(dir / "journal.csv");
  ASSERT_EQ(rows.size(), 4u);
  std::vector<std::uint64_t> ids;
  for (const auto& row : rows) ids.push_back(row.test_id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

// Tentpole end-to-end at unit scale: real worker threads, one seeded kill,
// a coordinator kill/restart mid-campaign — and a journal with exactly one
// row per test, bit-identical to a clean single-host run.
TEST(FleetEndToEnd, KillRestartResumeMatchesCleanRunExactly) {
  const fs::path dir = fresh_dir("end_to_end");
  constexpr std::size_t kTests = 160;
  constexpr std::size_t kWorkers = 4;
  const auto matrix = make_matrix(kTests);

  WorkerOptions worker_options;
  worker_options.renew_interval = 0.05;
  worker_options.ack_timeout = 0.25;
  worker_options.ack_attempts = 100;

  std::vector<std::unique_ptr<net::Communicator>> coordinator_side;
  std::vector<CampaignCoordinator::WorkerLink> links;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<CampaignWorkerService>> services;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    auto [coord_end, worker_end] = net::make_channel();
    coordinator_side.push_back(
        std::make_unique<net::Communicator>(std::move(coord_end)));
    links.push_back({"w" + std::to_string(i), coordinator_side.back().get()});
    WorkerOptions options = worker_options;
    if (i == 0) {
      // Seeded kill: worker 0 dies mid-shard after 10 tests, silently.
      options.kill_switch = [](std::uint64_t executed) {
        return executed >= 10;
      };
    }
    services.push_back(
        std::make_unique<CampaignWorkerService>(synth_record, options));
    threads.emplace_back(
        [service = services.back().get(),
         comm = std::make_shared<net::Communicator>(std::move(worker_end))] {
          service->serve(*comm);
        });
  }

  CoordinatorOptions options;
  options.lease_duration = 2.0;
  options.shard_size = 16;

  // Phase 1: the coordinator runs until it has merged at least 60 records
  // AND seen worker 0 hang up, then is "killed". The first step() leases
  // tests 0-15 to worker 0, which dies before its 11th. Phase 1's lease
  // is long enough never to lapse, so that shard stays worker 0's until
  // it dies and the campaign cannot finish first: the kill and its
  // detection happen in phase 1 however the threads are scheduled.
  CoordinatorOptions phase1 = options;
  phase1.lease_duration = 600.0;
  FleetReport report1;
  {
    CampaignCoordinator coordinator(CampaignIdentity{"e2e", 0},
                                    dir / "journal.csv", links, phase1);
    coordinator.begin(matrix);
    const auto deadline = steady_clock::now() + std::chrono::seconds(60);
    while (!(coordinator.report().merged >= 60 &&
             coordinator.report().workers_dead == 1) &&
           steady_clock::now() < deadline) {
      if (!coordinator.step()) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(phase1.idle_sleep));
      }
    }
    report1 = coordinator.report();
  }  // coordinator object destroyed; links and workers survive
  EXPECT_FALSE(report1.complete);
  EXPECT_GE(report1.merged, 60u);
  ASSERT_EQ(report1.workers_dead, 1u) << "worker 0 not seen dead in 60 s";

  // Phase 2: a fresh coordinator adopts the links, re-opens the journal,
  // and finishes exactly the missing tests.
  CampaignCoordinator restarted(CampaignIdentity{"e2e", 0},
                                dir / "journal.csv", links, options);
  const FleetReport report2 = restarted.run(matrix);
  EXPECT_TRUE(report2.complete);
  EXPECT_FALSE(report2.stranded);
  EXPECT_EQ(report2.resumed + report2.merged, kTests);
  restarted.stop_workers();
  for (auto& thread : threads) thread.join();

  // Worker 0 died; the fleet survived it.
  EXPECT_TRUE(services[0]->stats().killed);
  EXPECT_EQ(report1.workers_dead + report2.workers_dead, 1u);

  // Zero lost, zero duplicated: exactly one row per test...
  auto fleet_rows = db::CampaignJournal::load(dir / "journal.csv");
  ASSERT_EQ(fleet_rows.size(), kTests);
  std::sort(fleet_rows.begin(), fleet_rows.end(),
            [](const db::TestRecord& x, const db::TestRecord& y) {
              return x.test_id < y.test_id;
            });
  // ...and bit-identical to a clean single-host run of the same matrix.
  db::JournalMerger clean(dir / "clean.csv");
  for (std::uint32_t i = 0; i < kTests; ++i) {
    db::TestRecord record = synth_record(matrix[i]);
    record.test_id = i;
    ASSERT_TRUE(clean.append_unique(record));
  }
  const auto clean_rows = db::CampaignJournal::load(dir / "clean.csv");
  ASSERT_EQ(clean_rows.size(), kTests);
  for (std::size_t i = 0; i < kTests; ++i) {
    EXPECT_EQ(fleet_rows[i], clean_rows[i]) << "test " << i;
  }
}

// Resuming a journal under a different campaign (different matrix, so a
// different fingerprint) must throw, not silently mis-key records.
TEST(FleetIdentity, JournalRefusesForeignCampaign) {
  const fs::path dir = fresh_dir("identity");
  auto [ca, wa] = net::make_channel();
  net::Communicator coord_comm(std::move(ca));
  net::Communicator worker_comm(std::move(wa));
  std::vector<CampaignCoordinator::WorkerLink> links{{"w0", &coord_comm}};

  CampaignCoordinator first(CampaignIdentity{"mine", 0}, dir / "journal.csv",
                            links, {});
  first.begin(make_matrix(4));

  CampaignCoordinator wrong_matrix(CampaignIdentity{"mine", 0},
                                   dir / "journal.csv", links, {});
  EXPECT_THROW(wrong_matrix.begin(make_matrix(5)), std::runtime_error);

  CampaignCoordinator wrong_id(CampaignIdentity{"theirs", 0},
                               dir / "journal.csv", links, {});
  EXPECT_THROW(wrong_id.begin(make_matrix(4)), std::runtime_error);

  // The matching identity still resumes fine.
  CampaignCoordinator same(CampaignIdentity{"mine", 0}, dir / "journal.csv",
                           links, {});
  EXPECT_NO_THROW(same.begin(make_matrix(4)));
}

// The sidecar is written even when the journal's directory does not exist
// yet, so a later resume under a different matrix is refused.
TEST(FleetIdentity, JournalInNewDirectoryIsBoundToItsCampaign) {
  const fs::path journal = fresh_dir("new_dir") / "not" / "yet" / "journal.csv";
  auto [ca, wa] = net::make_channel();
  net::Communicator coord_comm(std::move(ca));
  net::Communicator worker_comm(std::move(wa));
  std::vector<CampaignCoordinator::WorkerLink> links{{"w0", &coord_comm}};

  CampaignCoordinator first(CampaignIdentity{"mine", 0}, journal, links, {});
  first.begin(make_matrix(4));
  EXPECT_TRUE(fs::exists(fs::path(journal.string() + ".campaign")));

  CampaignCoordinator wrong_matrix(CampaignIdentity{"mine", 0}, journal,
                                   links, {});
  EXPECT_THROW(wrong_matrix.begin(make_matrix(5)), std::runtime_error);
}

/// Runs `matrix` through a coordinator and one in-process worker thread
/// executing `executor`; stops the worker afterwards.
FleetReport run_fleet(const CampaignIdentity& identity,
                      const fs::path& journal,
                      const std::vector<workload::WorkloadMode>& matrix,
                      TestExecutor executor, CoordinatorOptions options = {}) {
  auto [coord_end, worker_end] = net::make_channel();
  net::Communicator coord_comm(std::move(coord_end));
  auto worker_comm = std::make_shared<net::Communicator>(std::move(worker_end));
  CampaignWorkerService service(std::move(executor));
  std::thread worker([&service, worker_comm] { service.serve(*worker_comm); });
  CampaignCoordinator coordinator(identity, journal, {{"w0", &coord_comm}},
                                  options);
  FleetReport report;
  try {
    report = coordinator.run(matrix);
  } catch (...) {
    coordinator.stop_workers();
    worker.join();
    throw;
  }
  coordinator.stop_workers();
  worker.join();
  return report;
}

/// Records which matrix indices ran, once per execution.
class ExecutionLog {
 public:
  explicit ExecutionLog(const std::vector<workload::WorkloadMode>& matrix)
      : matrix_(matrix) {}

  TestExecutor executor() {
    return [this](const workload::WorkloadMode& mode) {
      const auto it = std::find(matrix_.begin(), matrix_.end(), mode);
      util::MutexLock lock(mutex_);
      ran_.insert(static_cast<std::uint64_t>(it - matrix_.begin()));
      return synth_record(mode);
    };
  }

  std::multiset<std::uint64_t> ran() {
    util::MutexLock lock(mutex_);
    return ran_;
  }

 private:
  const std::vector<workload::WorkloadMode>& matrix_;
  util::Mutex mutex_;
  std::multiset<std::uint64_t> ran_ TRACER_GUARDED_BY(mutex_);
};

std::vector<db::TestRecord> rows_by_index(const fs::path& journal) {
  auto rows = db::CampaignJournal::load(journal);
  std::sort(rows.begin(), rows.end(),
            [](const db::TestRecord& x, const db::TestRecord& y) {
              return x.test_id < y.test_id;
            });
  return rows;
}

CampaignOptions runner_options(const fs::path& journal) {
  CampaignOptions options;
  options.journal_path = journal;
  options.max_retries = 0;
  options.retry_backoff = 0.0;
  options.threads = 2;
  return options;
}

/// Journal of a clean single-driver run of `matrix`, sorted by index.
std::vector<db::TestRecord> clean_rows(
    const fs::path& dir, const std::vector<workload::WorkloadMode>& matrix) {
  CampaignRunner clean(synth_record, "sim-array",
                       runner_options(dir / "clean.csv"));
  EXPECT_TRUE(clean.run(matrix).all_ok());
  return rows_by_index(dir / "clean.csv");
}

void expect_one_row_per_index(const std::vector<db::TestRecord>& rows,
                              const std::vector<db::TestRecord>& clean) {
  ASSERT_EQ(rows.size(), clean.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].test_id, i) << "lost or duplicated test";
    EXPECT_EQ(rows[i], clean[i]) << "test " << i;
  }
}

// A journal with record rows but no sidecar holds someone else's test ids:
// the coordinator refuses it and executes nothing. A header-only journal
// without a sidecar is still a fresh campaign.
TEST(FleetIdentity, SidecarlessJournalWithRowsIsRefused) {
  const fs::path dir = fresh_dir("sidecarless");
  const fs::path journal = dir / "journal.csv";
  const auto matrix = make_matrix(4);
  {
    db::CampaignJournal foreign(journal);
    for (std::uint32_t i = 0; i < 3; ++i) {
      db::TestRecord record = synth_record(matrix[i]);
      record.test_id = i;
      foreign.append(record);
    }
  }
  ExecutionLog log(matrix);
  EXPECT_THROW(run_fleet(CampaignIdentity{"sim-array", 0}, journal, matrix,
                         log.executor()),
               std::runtime_error);
  EXPECT_EQ(log.ran().size(), 0u);
  EXPECT_FALSE(fs::exists(fs::path(journal.string() + ".campaign")));

  fs::remove(journal);
  { db::CampaignJournal header_only(journal); }
  const FleetReport report = run_fleet(CampaignIdentity{"sim-array", 0},
                                       journal, matrix, log.executor());
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.resumed, 0u);
  EXPECT_EQ(log.ran().size(), matrix.size());
}

// A sidecar-less file that is not a blank journal is refused and left
// byte-for-byte alone; opening it as a journal would truncate it.
TEST(FleetIdentity, ForeignFileAtJournalPathIsRefusedAndUntouched) {
  const fs::path dir = fresh_dir("foreign");
  const fs::path journal = dir / "journal.csv";
  const auto matrix = make_matrix(4);
  ExecutionLog log(matrix);
  for (const char* foreign : kForeignFiles) {
    fs::remove(fs::path(journal.string() + ".campaign"));
    {
      std::ofstream out(journal, std::ios::binary | std::ios::trunc);
      out << foreign;
    }
    EXPECT_THROW(run_fleet(CampaignIdentity{"sim-array", 0}, journal, matrix,
                           log.executor()),
                 std::runtime_error);
    EXPECT_EQ(log.ran().size(), 0u);
    EXPECT_FALSE(fs::exists(fs::path(journal.string() + ".campaign")));
    EXPECT_EQ(read_bytes(journal), foreign);
  }
}

// One identity scheme: a journal the runner left partial (injected
// failures) is finished by a coordinator, which executes only the missing
// indices.
TEST(CrossDriverResume, CoordinatorFinishesRunnerJournal) {
  const fs::path dir = fresh_dir("runner_then_fleet");
  const fs::path journal = dir / "journal.csv";
  const auto matrix = make_matrix(24);
  std::set<std::uint64_t> missing;
  for (std::uint64_t i = 0; i < matrix.size(); ++i) {
    if (matrix[i].read_ratio == 0.0) missing.insert(i);
  }
  ASSERT_EQ(missing.size(), 8u);

  CampaignOptions options = runner_options(journal);
  options.fail_test = [](const workload::WorkloadMode& mode, int) {
    return mode.read_ratio == 0.0;
  };
  CampaignRunner runner(synth_record, "sim-array", options);
  const CampaignReport partial = runner.run(matrix);
  EXPECT_EQ(partial.failed(), missing.size());
  EXPECT_EQ(db::CampaignJournal::load(journal).size(),
            matrix.size() - missing.size());

  ExecutionLog log(matrix);
  const FleetReport report = run_fleet(CampaignIdentity{"sim-array", 0},
                                       journal, matrix, log.executor());
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.resumed, matrix.size() - missing.size());
  EXPECT_EQ(report.merged, missing.size());
  const auto ran = log.ran();
  EXPECT_EQ(std::set<std::uint64_t>(ran.begin(), ran.end()), missing);
  EXPECT_EQ(ran.size(), missing.size());
  expect_one_row_per_index(rows_by_index(journal), clean_rows(dir, matrix));
}

// And the reverse: a coordinator stopped part-way leaves a journal the
// runner resumes, executing only what the coordinator never merged.
TEST(CrossDriverResume, RunnerFinishesCoordinatorJournal) {
  const fs::path dir = fresh_dir("fleet_then_runner");
  const fs::path journal = dir / "journal.csv";
  const auto matrix = make_matrix(24);

  CoordinatorOptions stop_early;
  stop_early.shard_size = 4;
  stop_early.stop_after_merged = 10;
  const FleetReport first = run_fleet(CampaignIdentity{"sim-array", 0},
                                      journal, matrix, synth_record,
                                      stop_early);
  EXPECT_FALSE(first.complete);
  std::set<std::uint64_t> journaled;
  for (const auto& row : db::CampaignJournal::load(journal)) {
    journaled.insert(row.test_id);
  }
  ASSERT_GE(journaled.size(), 10u);
  ASSERT_LT(journaled.size(), matrix.size());

  ExecutionLog log(matrix);
  CampaignRunner runner(log.executor(), "sim-array", runner_options(journal));
  const CampaignReport report = runner.run(matrix);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.skipped(), journaled.size());
  EXPECT_EQ(report.completed(), matrix.size() - journaled.size());
  EXPECT_EQ(log.ran().size(), matrix.size() - journaled.size());
  for (const std::uint64_t index : log.ran()) {
    EXPECT_EQ(journaled.count(index), 0u) << "re-ran journaled test " << index;
  }
  const auto clean = clean_rows(dir, matrix);
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].record, clean[i]) << "slot " << i;
  }
  expect_one_row_per_index(rows_by_index(journal), clean);
}

}  // namespace
}  // namespace tracer::core
