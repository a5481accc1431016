// RAID controller: fans one logical request out to member-disk operations.
//
// Dispatch pipeline: requests arriving while the controller is within its
// dispatch window are batched; at dispatch, contiguous same-direction
// requests in the batch are merged (the block-layer elevator every real
// deployment replays through does exactly this, independent of the
// disabled write cache), capped at one full stripe width. Merging is what
// lets queued sequential small writes approach streaming rates instead of
// paying a read-modify-write per request.
//
// Reads touch only the mapped data extents. RAID-5 writes follow the two
// classic paths, which drive the paper's Fig 11 U-shape:
//   * full-stripe writes — the (merged) request covers every data unit of a
//     row, so parity is computed in-core and the row costs data+parity
//     writes only;
//   * read-modify-write — partial rows first read old data + old parity,
//     then write new data + new parity (the small-write penalty).
#pragma once

#include <cstdint>
#include <vector>

#include "storage/block_device.h"
#include "storage/raid.h"

namespace tracer::storage {

struct RaidControllerStats {
  std::uint64_t logical_reads = 0;
  std::uint64_t logical_writes = 0;
  std::uint64_t merged_batches = 0;  ///< merged ops covering >1 request
  std::uint64_t child_reads = 0;
  std::uint64_t child_writes = 0;
  std::uint64_t full_stripe_writes = 0;  ///< rows written without RMW
  std::uint64_t rmw_rows = 0;            ///< rows that paid read-modify-write
  std::uint64_t reconstructed_reads = 0; ///< degraded-mode rebuilt extents
};

class RaidController final : public BlockDevice,
                             private sim::EventTarget,
                             private IoSink {
 public:
  /// `disks` are borrowed; they must outlive the controller and share `sim`.
  /// `dispatch_overhead` is both the per-batch controller latency and the
  /// batching window for merges.
  RaidController(sim::Simulator& sim, RaidGeometry geometry,
                 std::vector<BlockDevice*> disks,
                 Seconds dispatch_overhead = 0.05e-3);

  // BlockDevice
  Bytes capacity() const override { return capacity_; }
  void submit(const IoRequest& request, CompletionCallback done) override;
  std::size_t outstanding() const override { return outstanding_; }
  /// One dispatch timer, one degenerate-completion event, plus every
  /// member's own worst case.
  std::size_t max_concurrent_events() const override {
    std::size_t total = 2;
    for (const auto* disk : disks_) total += disk->max_concurrent_events();
    return total;
  }

  // PowerSource (aggregates member disks; enclosure power lives in
  // DiskArray).
  std::string name() const override { return "raid-controller"; }
  Watts power_at(Seconds t) const override;
  Joules energy_until(Seconds t) override;

  const RaidGeometry& geometry() const { return geometry_; }
  const RaidControllerStats& stats() const { return stats_; }

  // ---- Degraded mode (RAID-5 only) ----
  // Reads addressed to a failed member reconstruct from the surviving
  // data + parity of the row; writes skip the failed member (updating
  // parity so the data stays recoverable). At most one failure is
  // tolerated, like any single-parity array.

  /// Mark a member failed. Throws when another disk is already failed
  /// (double fault = data loss) or the level is not RAID-5.
  void fail_disk(std::size_t disk);

  /// Bring a member back (after a simulated rebuild).
  void restore_disk(std::size_t disk);

  bool degraded() const { return failed_disk_ >= 0; }
  std::ptrdiff_t failed_disk() const { return failed_disk_; }

  /// Direct member access (rebuild engine, diagnostics).
  std::size_t member_count() const { return disks_.size(); }
  BlockDevice& member(std::size_t disk) { return *disks_.at(disk); }

 private:
  /// Typed event argument of the dispatch timer; any other value is the
  /// transaction slot of a degenerate write that touches no member.
  static constexpr std::uint64_t kDispatchEvent = ~0ULL;

  /// Completion tag of a child I/O: its transaction slot in the low 32
  /// bits, and above them 0 for a plain child or 1 + the index of the
  /// read-modify-write row whose read it is.
  static std::uint64_t child_tag(std::uint32_t slot, std::uint64_t phase) {
    return phase << 32 | slot;
  }

  void on_event(std::uint64_t arg) override;
  void on_complete(std::uint64_t tag, const IoCompletion&) override;
  /// Read-modify-write bookkeeping of one stripe row: when the row's reads
  /// finish, its deferred writes go out.
  struct RowPhase {
    std::size_t reads_pending = 0;
    std::vector<RaidGeometry::Extent> deferred_writes;
  };
  /// One merged op in flight, held in a slot of `txns_`. Released slots go
  /// on `free_txns_` and keep their vectors' capacity, so a steady-state
  /// replay allocates no transaction state.
  struct Transaction {
    std::vector<PendingIo> members;  ///< complete together with the op
    std::vector<RowPhase> rows;    ///< first `rows_used` entries are live
    std::uint32_t rows_used = 0;
  };
  /// One stripe row of a RAID-5 write plan: its ranges of `plan_reads_`
  /// and `plan_writes_`.
  struct RowPlan {
    std::size_t reads_begin = 0, reads_end = 0;
    std::size_t writes_begin = 0, writes_end = 0;
  };

  void dispatch_batch();
  void execute(std::size_t begin, std::size_t end);
  void issue_read(std::uint32_t slot, Sector sector, Bytes bytes);
  void issue_write(std::uint32_t slot, Sector sector, Bytes bytes);
  void plan_raid5_rows();
  void issue_child(std::size_t disk, Sector sector, Bytes bytes, OpType op,
                   std::uint32_t slot, std::uint64_t phase = 0);
  void row_read_done(std::uint32_t slot, std::uint32_t phase);
  void child_done(std::uint32_t slot);
  std::uint32_t alloc_txn();
  bool disk_failed(std::size_t disk) const {
    return failed_disk_ == static_cast<std::ptrdiff_t>(disk);
  }

  RaidGeometry geometry_;
  Bytes capacity_;  ///< geometry_.capacity(), fixed at construction
  std::vector<BlockDevice*> disks_;
  Seconds dispatch_overhead_;
  Bytes max_merge_bytes_;
  std::vector<PendingIo> batch_;
  std::vector<PendingIo> dispatching_;  ///< batch_ swapped out at dispatch
  bool dispatch_scheduled_ = false;
  std::vector<Transaction> txns_;
  /// Children in flight per slot, apart from txns_ so the completions of
  /// all but the last child touch one dense array.
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint32_t> free_txns_;
  // Per-op scratch, reused so planning allocates nothing in steady state.
  std::vector<RaidGeometry::Extent> extents_;
  std::vector<RaidGeometry::Extent> plan_reads_;
  std::vector<RaidGeometry::Extent> plan_writes_;
  std::vector<RowPlan> row_plans_;
  std::uint64_t next_child_id_ = 1;
  std::size_t outstanding_ = 0;
  std::ptrdiff_t failed_disk_ = -1;
  RaidControllerStats stats_;
};

}  // namespace tracer::storage
