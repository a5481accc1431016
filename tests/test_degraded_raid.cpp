#include <gtest/gtest.h>

#include <optional>

#include "storage/callback_sink.h"
#include "storage/disk_array.h"
#include "storage/raid_controller.h"

namespace tracer::storage {
namespace {

/// Instant fake disk recording child ops (same shape as the controller
/// unit tests, duplicated deliberately: degraded mode has its own fixture
/// needs and sharing headers between test binaries couples them).
class RecordingDisk final : public BlockDevice {
 public:
  RecordingDisk(sim::Simulator& sim, Bytes capacity)
      : BlockDevice(sim), capacity_(capacity) {}

  Bytes capacity() const override { return capacity_; }
  std::size_t outstanding() const override { return outstanding_; }
  std::string name() const override { return "recording"; }
  Watts power_at(Seconds) const override { return 0.0; }
  Joules energy_until(Seconds) override { return 0.0; }

  void submit(const IoRequest& request, CompletionCallback done) override {
    ops.push_back(request);
    ++outstanding_;
    sim_.schedule_in(1e-4, [this, request, done = std::move(done)] {
      --outstanding_;
      done(IoCompletion{request.id, sim_.now() - 1e-4, sim_.now(),
                        request.bytes, request.op});
    });
  }

  std::vector<IoRequest> ops;

 private:
  Bytes capacity_;
  std::size_t outstanding_ = 0;
};

struct Fixture {
  static constexpr Bytes kDiskCapacity = 64ULL * 1024 * 1024;
  sim::Simulator sim;
  std::vector<std::unique_ptr<RecordingDisk>> disks;
  std::vector<IoCompletion> completions;
  CallbackSink done;  ///< routes collect()'s closures
  std::unique_ptr<RaidController> raid;

  explicit Fixture(std::size_t disk_count = 6) {
    std::vector<BlockDevice*> raw;
    for (std::size_t i = 0; i < disk_count; ++i) {
      disks.push_back(std::make_unique<RecordingDisk>(sim, kDiskCapacity));
      raw.push_back(disks.back().get());
    }
    RaidGeometry geometry(RaidLevel::kRaid5, disk_count, 128 * kKiB,
                          kDiskCapacity);
    raid = std::make_unique<RaidController>(sim, geometry, std::move(raw));
  }

  CompletionCallback collect() {
    return done.bind(
        [this](const IoCompletion& c) { completions.push_back(c); });
  }

  std::size_t ops_on(std::size_t disk) const {
    return disks[disk]->ops.size();
  }
  std::size_t total_ops() const {
    std::size_t n = 0;
    for (const auto& disk : disks) n += disk->ops.size();
    return n;
  }
};

TEST(DegradedRaid, FailDiskValidation) {
  Fixture f;
  EXPECT_THROW(f.raid->fail_disk(99), std::out_of_range);
  f.raid->fail_disk(2);
  EXPECT_TRUE(f.raid->degraded());
  EXPECT_THROW(f.raid->fail_disk(3), std::logic_error);  // double fault
  EXPECT_THROW(f.raid->restore_disk(3), std::logic_error);
  f.raid->restore_disk(2);
  EXPECT_FALSE(f.raid->degraded());
}

TEST(DegradedRaid, Raid0CannotDegrade) {
  sim::Simulator sim;
  RecordingDisk d0(sim, 64ULL << 20), d1(sim, 64ULL << 20);
  RaidGeometry geometry(RaidLevel::kRaid0, 2, 128 * kKiB, 64ULL << 20);
  RaidController raid(sim, geometry, {&d0, &d1});
  EXPECT_THROW(raid.fail_disk(0), std::logic_error);
}

TEST(DegradedRaid, ReadOnFailedDiskReconstructsFromSurvivors) {
  Fixture f;
  // Unit 0 of row 0 lives on disk 0 (parity on disk 5).
  f.raid->fail_disk(0);
  f.raid->submit(IoRequest{1, 0, 4096, OpType::kRead}, f.collect());
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.ops_on(0), 0u);           // failed member untouched
  EXPECT_EQ(f.total_ops(), 5u);         // 5 surviving members read
  EXPECT_EQ(f.raid->stats().reconstructed_reads, 1u);
}

TEST(DegradedRaid, ReadOnSurvivingDiskUnaffected) {
  Fixture f;
  f.raid->fail_disk(0);
  // Unit 1 of row 0 lives on disk 1.
  f.raid->submit(IoRequest{1, (128 * kKiB) / kSectorSize, 4096,
                           OpType::kRead},
                 f.collect());
  f.sim.run();
  EXPECT_EQ(f.total_ops(), 1u);
  EXPECT_EQ(f.raid->stats().reconstructed_reads, 0u);
}

TEST(DegradedRaid, WriteToFailedDataDiskRecomputesParityFromPeers) {
  Fixture f;
  f.raid->fail_disk(0);  // holds unit 0 of row 0
  f.raid->submit(IoRequest{1, 0, 4096, OpType::kWrite}, f.collect());
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.ops_on(0), 0u);
  // Reads: the 4 surviving data members (disks 1..4); write: parity (5).
  EXPECT_EQ(f.raid->stats().child_reads, 4u);
  EXPECT_EQ(f.raid->stats().child_writes, 1u);
  EXPECT_EQ(f.ops_on(5), 1u);
  EXPECT_EQ(f.disks[5]->ops[0].op, OpType::kWrite);
}

TEST(DegradedRaid, WriteWithFailedParityDiskSkipsParityMaintenance) {
  Fixture f;
  f.raid->fail_disk(5);  // parity of row 0
  f.raid->submit(IoRequest{1, 0, 4096, OpType::kWrite}, f.collect());
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.total_ops(), 1u);  // plain data write, no reads
  EXPECT_EQ(f.ops_on(0), 1u);
  EXPECT_EQ(f.raid->stats().child_reads, 0u);
}

TEST(DegradedRaid, FullStripeWriteSkipsFailedMember) {
  Fixture f;
  f.raid->fail_disk(1);
  const Bytes full_row = 5 * 128 * kKiB;
  f.raid->submit(IoRequest{1, 0, full_row, OpType::kWrite}, f.collect());
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.ops_on(1), 0u);
  EXPECT_EQ(f.total_ops(), 5u);  // 4 surviving data + parity
  EXPECT_EQ(f.raid->stats().full_stripe_writes, 1u);
}

TEST(DegradedRaid, RestoreReturnsToNormalPaths) {
  Fixture f;
  f.raid->fail_disk(0);
  f.raid->restore_disk(0);
  f.raid->submit(IoRequest{1, 0, 4096, OpType::kRead}, f.collect());
  f.sim.run();
  EXPECT_EQ(f.total_ops(), 1u);
  EXPECT_EQ(f.ops_on(0), 1u);
}

struct BurstResult {
  Seconds makespan = 0.0;
  Seconds mean_response = 0.0;
};

/// 60 random 16 KiB reads, all arriving at t = 0, on the HDD testbed
/// array; the trace is the same whichever member (if any) has failed.
BurstResult run_read_burst(std::optional<std::size_t> failed_member) {
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  if (failed_member) array.controller().fail_disk(*failed_member);
  util::Rng rng(7);
  int completions = 0;
  Seconds total_response = 0.0;
  CallbackSink done;
  for (int i = 0; i < 60; ++i) {
    array.submit(
        IoRequest{static_cast<std::uint64_t>(i), rng.below(1ULL << 28) * 8,
                  16 * kKiB, OpType::kRead},
        done.bind([&](const IoCompletion& c) {
          ++completions;
          total_response += c.latency();
        }));
  }
  BurstResult result;
  result.makespan = sim.run();
  EXPECT_EQ(completions, 60);
  result.mean_response = total_response / completions;
  return result;
}

TEST(DegradedRaid, DegradedThroughputPenaltyOnRealArray) {
  // End-to-end: degraded random reads are measurably slower on the HDD
  // array (reconstruction touches every member).
  EXPECT_GT(run_read_burst(0).makespan,
            run_read_burst(std::nullopt).makespan * 1.3);
}

// Oracle: losing a member only adds work to a read (a read of the failed
// member becomes a read of every survivor), so whichever member fails, the
// degraded array's mean response on the same trace is never below the
// healthy array's.
class DegradedMember : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DegradedMember, MeanResponseNeverBelowHealthy) {
  const BurstResult healthy = run_read_burst(std::nullopt);
  const BurstResult degraded = run_read_burst(GetParam());
  EXPECT_GE(degraded.mean_response, healthy.mean_response);
}

INSTANTIATE_TEST_SUITE_P(EachMember, DegradedMember,
                         ::testing::Range<std::size_t>(0, 6));

}  // namespace
}  // namespace tracer::storage
