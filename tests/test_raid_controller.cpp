#include "storage/raid_controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "power/power_timeline.h"

namespace tracer::storage {
namespace {

/// Instant-completion fake disk that records the child ops it receives.
class RecordingDisk final : public BlockDevice {
 public:
  RecordingDisk(sim::Simulator& sim, Bytes capacity, Seconds latency = 1e-4)
      : BlockDevice(sim), capacity_(capacity), latency_(latency) {}

  Bytes capacity() const override { return capacity_; }
  std::size_t outstanding() const override { return outstanding_; }
  std::string name() const override { return "recording"; }
  Watts power_at(Seconds) const override { return 1.0; }
  Joules energy_until(Seconds t) override { return t; }

  void submit(const IoRequest& request, CompletionCallback done) override {
    ops.push_back(request);
    ++outstanding_;
    sim_.schedule_in(latency_, [this, request, done = std::move(done)] {
      --outstanding_;
      done(IoCompletion{request.id, sim_.now() - latency_, sim_.now(),
                        request.bytes, request.op});
    });
  }

  std::vector<IoRequest> ops;

 private:
  Bytes capacity_;
  Seconds latency_;
  std::size_t outstanding_ = 0;
};

struct Fixture {
  static constexpr Bytes kDiskCapacity = 64ULL * 1024 * 1024;
  sim::Simulator sim;
  std::vector<std::unique_ptr<RecordingDisk>> disks;
  std::vector<IoCompletion> completions;

  /// `latency_step` > 0 gives disk i a service latency of
  /// 1e-4 + i * latency_step, so children of concurrent transactions
  /// complete interleaved rather than in submission order.
  std::unique_ptr<RaidController> make(std::size_t disk_count,
                                       RaidLevel level = RaidLevel::kRaid5,
                                       bool merge = true,
                                       Seconds latency_step = 0.0) {
    std::vector<BlockDevice*> raw;
    for (std::size_t i = 0; i < disk_count; ++i) {
      disks.push_back(std::make_unique<RecordingDisk>(
          sim, kDiskCapacity,
          1e-4 + static_cast<double>(i) * latency_step));
      raw.push_back(disks.back().get());
    }
    RaidGeometry geometry(level, disk_count, 128 * kKiB, kDiskCapacity);
    return std::make_unique<RaidController>(sim, geometry, std::move(raw),
                                            0.05e-3, merge);
  }

  CompletionCallback collect() {
    return [this](const IoCompletion& c) { completions.push_back(c); };
  }

  std::size_t total_child_ops() const {
    std::size_t n = 0;
    for (const auto& disk : disks) n += disk->ops.size();
    return n;
  }
};

TEST(RaidController, RejectsMismatchedDiskList) {
  sim::Simulator sim;
  RaidGeometry geometry(RaidLevel::kRaid5, 4, 128 * kKiB, kMiB);
  EXPECT_THROW(RaidController(sim, geometry, {}), std::invalid_argument);
}

TEST(RaidController, RejectsOutOfRangeRequests) {
  Fixture f;
  auto raid = f.make(4);
  const Sector beyond = raid->capacity() / kSectorSize;
  EXPECT_THROW(
      raid->submit(IoRequest{1, beyond, 4096, OpType::kRead}, f.collect()),
      std::out_of_range);
  EXPECT_THROW(raid->submit(IoRequest{1, 0, 0, OpType::kRead}, f.collect()),
               std::invalid_argument);
}

TEST(RaidController, SingleUnitReadTouchesOneDisk) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{1, 0, 4096, OpType::kRead}, f.collect());
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 1u);
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(raid->stats().logical_reads, 1u);
  EXPECT_EQ(raid->stats().child_reads, 1u);
}

TEST(RaidController, SpanningReadFansOut) {
  Fixture f;
  auto raid = f.make(6);
  // 256 KB starting at 64 KB into unit 0 -> 3 extents on 3 disks.
  raid->submit(IoRequest{1, (64 * kKiB) / kSectorSize, 256 * kKiB,
                         OpType::kRead},
               f.collect());
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 3u);
  EXPECT_EQ(f.completions.size(), 1u);
}

TEST(RaidController, SmallWritePaysReadModifyWrite) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{1, 0, 4096, OpType::kWrite}, f.collect());
  f.sim.run();
  // RMW: read old data + old parity, write new data + new parity.
  EXPECT_EQ(f.total_child_ops(), 4u);
  EXPECT_EQ(raid->stats().rmw_rows, 1u);
  EXPECT_EQ(raid->stats().full_stripe_writes, 0u);
  EXPECT_EQ(raid->stats().child_reads, 2u);
  EXPECT_EQ(raid->stats().child_writes, 2u);
}

TEST(RaidController, RmwWritesGoOutAfterReads) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{1, 0, 4096, OpType::kWrite}, f.collect());
  f.sim.run();
  // Recorded per disk in submission order: each disk saw read before write.
  for (const auto& disk : f.disks) {
    if (disk->ops.size() == 2) {
      EXPECT_EQ(disk->ops[0].op, OpType::kRead);
      EXPECT_EQ(disk->ops[1].op, OpType::kWrite);
    }
  }
}

TEST(RaidController, FullStripeWriteSkipsReads) {
  Fixture f;
  auto raid = f.make(6);
  const Bytes full_row = 5 * 128 * kKiB;
  raid->submit(IoRequest{1, 0, full_row, OpType::kWrite}, f.collect());
  f.sim.run();
  // 5 data writes + 1 parity write; zero reads.
  EXPECT_EQ(f.total_child_ops(), 6u);
  EXPECT_EQ(raid->stats().full_stripe_writes, 1u);
  EXPECT_EQ(raid->stats().child_reads, 0u);
  EXPECT_EQ(raid->stats().child_writes, 6u);
}

TEST(RaidController, Raid0WriteHasNoParityCost) {
  Fixture f;
  auto raid = f.make(4, RaidLevel::kRaid0);
  raid->submit(IoRequest{1, 0, 4096, OpType::kWrite}, f.collect());
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 1u);
}

TEST(RaidController, MergesContiguousRequestsInBatch) {
  Fixture f;
  auto raid = f.make(6, RaidLevel::kRaid5, /*merge=*/true);
  // Eight contiguous 16 KB reads submitted back-to-back (same batch
  // window) covering one 128 KB unit -> one child read.
  for (int i = 0; i < 8; ++i) {
    raid->submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 32, 16 * kKiB,
                           OpType::kRead},
                 f.collect());
  }
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 1u);
  EXPECT_EQ(f.completions.size(), 8u);
  EXPECT_EQ(raid->stats().merged_batches, 1u);
}

TEST(RaidController, MergeDisabledIssuesPerRequest) {
  Fixture f;
  auto raid = f.make(6, RaidLevel::kRaid5, /*merge=*/false);
  for (int i = 0; i < 8; ++i) {
    raid->submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 32, 16 * kKiB,
                           OpType::kRead},
                 f.collect());
  }
  f.sim.run();
  EXPECT_EQ(f.total_child_ops(), 8u);
}

TEST(RaidController, DoesNotMergeAcrossOpTypes) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{1, 0, 16 * kKiB, OpType::kRead}, f.collect());
  raid->submit(IoRequest{2, 32, 16 * kKiB, OpType::kWrite}, f.collect());
  f.sim.run();
  // Read stays one op; the write RMWs: 1 + 4 children.
  EXPECT_EQ(f.total_child_ops(), 5u);
}

TEST(RaidController, MergeCapsAtStripeWidth) {
  Fixture f;
  auto raid = f.make(6);
  // 6 contiguous 128 KB reads = 768 KB > 5-unit stripe width (640 KB):
  // must split into at least two merged ops.
  for (int i = 0; i < 6; ++i) {
    raid->submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 256, 128 * kKiB,
                           OpType::kRead},
                 f.collect());
  }
  f.sim.run();
  EXPECT_GE(f.total_child_ops(), 6u);  // still one child per unit
  EXPECT_EQ(f.completions.size(), 6u);
}

TEST(RaidController, CompletionCarriesLatencyAndIds) {
  Fixture f;
  auto raid = f.make(6);
  raid->submit(IoRequest{77, 0, 4096, OpType::kRead}, f.collect());
  f.sim.run();
  ASSERT_EQ(f.completions.size(), 1u);
  EXPECT_EQ(f.completions[0].id, 77u);
  EXPECT_GT(f.completions[0].latency(), 0.0);
  EXPECT_EQ(f.completions[0].bytes, 4096u);
}

TEST(RaidController, OutstandingDrainsToZero) {
  Fixture f;
  auto raid = f.make(6);
  for (int i = 0; i < 10; ++i) {
    raid->submit(IoRequest{static_cast<std::uint64_t>(i),
                           static_cast<Sector>(i) * 1000, 8192,
                           OpType::kWrite},
                 f.collect());
  }
  EXPECT_GT(raid->outstanding(), 0u);
  f.sim.run();
  EXPECT_EQ(raid->outstanding(), 0u);
  EXPECT_EQ(f.completions.size(), 10u);
}

TEST(RaidController, AggregatesMemberDiskPower) {
  Fixture f;
  auto raid = f.make(6);
  EXPECT_DOUBLE_EQ(raid->power_at(0.0), 6.0);   // 1 W per recording disk
  EXPECT_DOUBLE_EQ(raid->energy_until(5.0), 30.0);
}

// ---- Transaction slot reuse ----------------------------------------------
// In-flight merged ops live in recycled slots; these pin that a slot's
// release, reuse and re-entrant submits never lose, duplicate or mix up a
// logical request.

TEST(RaidController, CompletionCallbackCanResubmitWhileSlotIsReleased) {
  Fixture f;
  auto raid = f.make(6);
  std::vector<std::uint64_t> done_ids;
  std::uint64_t next_id = 100;
  constexpr std::uint64_t kLastId = 139;  // 40 resubmitted writes
  std::function<void(const IoCompletion&)> on_done =
      [&](const IoCompletion& c) {
        done_ids.push_back(c.id);
        if (next_id > kLastId) return;
        // Re-entrant submit from inside the releasing transaction's member
        // loop: a 4 KiB write (read-modify-write) 2 MiB from any other.
        const std::uint64_t id = next_id++;
        raid->submit(IoRequest{id, static_cast<Sector>(id) * 4096, 4096,
                               OpType::kWrite},
                     on_done);
      };
  // Four contiguous reads merge into one transaction with four members;
  // each member's completion resubmits while that slot is being released.
  for (std::uint64_t i = 0; i < 4; ++i) {
    raid->submit(IoRequest{i, static_cast<Sector>(i) * 32, 16 * kKiB,
                           OpType::kRead},
                 on_done);
  }
  f.sim.run();

  std::vector<std::uint64_t> expected = {0, 1, 2, 3};
  for (std::uint64_t id = 100; id <= kLastId; ++id) expected.push_back(id);
  std::sort(done_ids.begin(), done_ids.end());
  EXPECT_EQ(done_ids, expected);  // each request completed exactly once
  EXPECT_EQ(raid->outstanding(), 0u);
  const auto& stats = raid->stats();
  EXPECT_EQ(stats.logical_reads, 4u);
  EXPECT_EQ(stats.logical_writes, 40u);
  EXPECT_EQ(stats.merged_batches, 1u);
  EXPECT_EQ(stats.child_reads, 1u + 40u * 2u);  // merged read + RMW reads
  EXPECT_EQ(stats.child_writes, 40u * 2u);
  EXPECT_EQ(stats.rmw_rows, 40u);
  EXPECT_EQ(f.total_child_ops(), stats.child_reads + stats.child_writes);
}

/// Submit writes that each straddle a stripe-row boundary (the last 64 KiB
/// of row k-1's last data unit plus the first 64 KiB of row k's first),
/// for k = 1, 3, 5, 7: eight partial rows, four concurrent two-row RMW
/// transactions. Every round is submitted in one batch window and drained.
void run_straddling_writes(Fixture& f, RaidController& raid, int rounds) {
  const Bytes row_bytes = 5 * 128 * kKiB;
  for (int round = 0; round < rounds; ++round) {
    for (std::uint64_t k = 1; k <= 7; k += 2) {
      const Bytes at = k * row_bytes - 64 * kKiB;
      raid.submit(IoRequest{static_cast<std::uint64_t>(round) * 10 + k,
                            at / kSectorSize, 128 * kKiB, OpType::kWrite},
                  f.collect());
    }
    f.sim.run();
  }
}

std::vector<std::uint64_t> sorted_ids(const std::vector<IoCompletion>& done) {
  std::vector<std::uint64_t> ids;
  for (const auto& c : done) ids.push_back(c.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const std::vector<std::uint64_t> kStraddleIds = {1,  3,  5,  7,  11, 13,
                                                 15, 17, 21, 23, 25, 27};

TEST(RaidController, InterleavedMultiRowRmwReusesSlotsHealthy) {
  Fixture f;
  auto raid = f.make(6, RaidLevel::kRaid5, true, /*latency_step=*/0.7e-4);
  run_straddling_writes(f, *raid, 3);

  EXPECT_EQ(sorted_ids(f.completions), kStraddleIds);
  EXPECT_EQ(raid->outstanding(), 0u);
  const auto& stats = raid->stats();
  // Per write and row: read old data + old parity, write both back.
  EXPECT_EQ(stats.logical_writes, 12u);
  EXPECT_EQ(stats.rmw_rows, 12u * 2u);
  EXPECT_EQ(stats.child_reads, 12u * 4u);
  EXPECT_EQ(stats.child_writes, 12u * 4u);
  EXPECT_EQ(stats.full_stripe_writes, 0u);
  EXPECT_EQ(stats.merged_batches, 0u);
  EXPECT_EQ(f.total_child_ops(), stats.child_reads + stats.child_writes);
}

TEST(RaidController, InterleavedMultiRowRmwReusesSlotsDegraded) {
  Fixture f;
  auto raid = f.make(6, RaidLevel::kRaid5, true, /*latency_step=*/0.7e-4);
  // Disk 4 holds row 0's and row 6's last data unit (k = 1, 7:
  // reconstruct-write, 4 surviving-data reads + 1 parity write) and row
  // 1's and row 7's parity (no reads, 1 data write). Rows 2-5 (k = 3, 5)
  // keep the classic RMW (2 reads, 2 writes each).
  raid->fail_disk(4);
  run_straddling_writes(f, *raid, 3);

  EXPECT_EQ(sorted_ids(f.completions), kStraddleIds);
  EXPECT_EQ(raid->outstanding(), 0u);
  const auto& stats = raid->stats();
  EXPECT_EQ(stats.logical_writes, 12u);
  EXPECT_EQ(stats.rmw_rows, 3u * 6u);
  EXPECT_EQ(stats.child_reads, 3u * (4u + 2u + 2u + 2u + 2u + 4u));
  EXPECT_EQ(stats.child_writes, 3u * (1u + 1u + 2u + 2u + 2u + 2u + 1u + 1u));
  EXPECT_EQ(stats.reconstructed_reads, 0u);
  EXPECT_TRUE(f.disks[4]->ops.empty());  // the failed member gets nothing
  EXPECT_EQ(f.total_child_ops(), stats.child_reads + stats.child_writes);
}

}  // namespace
}  // namespace tracer::storage
