#include "storage/raid_controller.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace tracer::storage {

namespace {

/// pending_ keeps child countdowns as u32 to stay one dense array; a
/// request fanning out to more children than that is rejected, not wrapped.
std::uint32_t child_count(std::size_t children) {
  if (children > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("RaidController: request fans out to too many "
                            "child I/Os");
  }
  return static_cast<std::uint32_t>(children);
}

}  // namespace

RaidController::RaidController(sim::Simulator& sim, RaidGeometry geometry,
                               std::vector<BlockDevice*> disks,
                               Seconds dispatch_overhead)
    : BlockDevice(sim),
      geometry_(std::move(geometry)),
      capacity_(geometry_.capacity()),
      disks_(std::move(disks)),
      dispatch_overhead_(dispatch_overhead),
      max_merge_bytes_(geometry_.stripe_unit * geometry_.data_disks()) {
  if (disks_.size() != geometry_.disk_count) {
    throw std::invalid_argument(
        "RaidController: disk list does not match geometry");
  }
  for (auto* disk : disks_) {
    if (disk == nullptr) {
      throw std::invalid_argument("RaidController: null member disk");
    }
    if (disk->capacity() < geometry_.disk_capacity) {
      throw std::invalid_argument(
          "RaidController: member disk smaller than geometry expects");
    }
  }
}

Watts RaidController::power_at(Seconds t) const {
  Watts total = 0.0;
  for (const auto* disk : disks_) total += disk->power_at(t);
  return total;
}

Joules RaidController::energy_until(Seconds t) {
  Joules total = 0.0;
  for (auto* disk : disks_) total += disk->energy_until(t);
  return total;
}

void RaidController::submit(const IoRequest& request, CompletionCallback done) {
  if (request.bytes == 0) {
    throw std::invalid_argument("RaidController: zero-byte request");
  }
  if (!range_fits(request.sector, request.bytes, capacity_)) {
    throw std::out_of_range("RaidController: request beyond capacity");
  }
  ++outstanding_;
  batch_.push_back(PendingIo{request, done, sim_.now()});
  if (!dispatch_scheduled_) {
    dispatch_scheduled_ = true;
    sim_.schedule_in(dispatch_overhead_, *this, kDispatchEvent);
  }
}

void RaidController::on_event(std::uint64_t arg) {
  if (arg == kDispatchEvent) {
    dispatch_batch();
  } else {
    child_done(static_cast<std::uint32_t>(arg));
  }
}

void RaidController::on_complete(std::uint64_t tag, const IoCompletion&) {
  const auto slot = static_cast<std::uint32_t>(tag);
  const std::uint64_t phase = tag >> 32;
  if (phase == 0) {
    child_done(slot);
  } else {
    row_read_done(slot, static_cast<std::uint32_t>(phase - 1));
  }
}

void RaidController::dispatch_batch() {
  dispatch_scheduled_ = false;
  dispatching_.swap(batch_);
  if (dispatching_.empty()) return;

  if (dispatching_.size() == 1) {
    execute(0, 1);
    dispatching_.clear();
    return;
  }

  // Elevator merge: stable sort by (op, sector) and coalesce contiguous
  // runs of the same direction, capped at one stripe width. A batch holds
  // a handful of requests, and std::stable_sort allocates a buffer on every
  // call; insertion sort is stable (an element only moves past strictly
  // greater ones), so the runs are the same.
  const auto first = dispatching_.begin();
  for (auto it = first + 1; it != dispatching_.end(); ++it) {
    const IoRequest& key = it->request;
    auto pos = it;
    while (pos != first && (key.op < (pos - 1)->request.op ||
                            (key.op == (pos - 1)->request.op &&
                             key.sector < (pos - 1)->request.sector))) {
      --pos;
    }
    std::rotate(pos, it, it + 1);
  }
  std::size_t run_begin = 0;
  Bytes run_bytes = 0;
  for (std::size_t i = 0; i < dispatching_.size(); ++i) {
    const IoRequest& request = dispatching_[i].request;
    const bool continues =
        i > run_begin && request.op == dispatching_[i - 1].request.op &&
        request.sector == dispatching_[i - 1].request.end_sector() &&
        run_bytes + request.bytes <= max_merge_bytes_;
    if (!continues && i > run_begin) {
      if (i - run_begin > 1) ++stats_.merged_batches;
      execute(run_begin, i);
      run_begin = i;
      run_bytes = 0;
    }
    run_bytes += request.bytes;
  }
  if (dispatching_.size() - run_begin > 1) ++stats_.merged_batches;
  execute(run_begin, dispatching_.size());
  dispatching_.clear();
}

std::uint32_t RaidController::alloc_txn() {
  if (!free_txns_.empty()) {
    const std::uint32_t slot = free_txns_.back();
    free_txns_.pop_back();
    return slot;
  }
  txns_.emplace_back();
  pending_.push_back(0);
  return static_cast<std::uint32_t>(txns_.size() - 1);
}

void RaidController::execute(std::size_t begin, std::size_t end) {
  const std::uint32_t slot = alloc_txn();
  Transaction& txn = txns_[slot];
  const Sector sector = dispatching_[begin].request.sector;
  const OpType op = dispatching_[begin].request.op;
  Bytes bytes = 0;
  for (std::size_t i = begin; i < end; ++i) {
    bytes += dispatching_[i].request.bytes;
    txn.members.push_back(dispatching_[i]);
  }

  if (op == OpType::kRead) {
    stats_.logical_reads += end - begin;
    issue_read(slot, sector, bytes);
  } else {
    stats_.logical_writes += end - begin;
    issue_write(slot, sector, bytes);
  }
}

void RaidController::fail_disk(std::size_t disk) {
  if (geometry_.level != RaidLevel::kRaid5) {
    throw std::logic_error("fail_disk: degraded mode needs RAID-5");
  }
  if (disk >= disks_.size()) {
    throw std::out_of_range("fail_disk: no such member");
  }
  if (failed_disk_ >= 0) {
    throw std::logic_error(
        "fail_disk: a member is already failed (double fault loses data)");
  }
  failed_disk_ = static_cast<std::ptrdiff_t>(disk);
}

void RaidController::restore_disk(std::size_t disk) {
  if (failed_disk_ != static_cast<std::ptrdiff_t>(disk)) {
    throw std::logic_error("restore_disk: that member is not failed");
  }
  failed_disk_ = -1;
}

void RaidController::issue_read(std::uint32_t slot, Sector sector,
                                Bytes bytes) {
  geometry_.map_into(sector * kSectorSize, bytes, extents_);

  // Count children first (reconstructed extents fan out to n-1 reads).
  std::size_t total = 0;
  for (const auto& extent : extents_) {
    total += disk_failed(extent.disk) ? disks_.size() - 1 : 1;
  }
  pending_[slot] = child_count(total);
  stats_.child_reads += total;

  for (const auto& extent : extents_) {
    if (disk_failed(extent.disk)) {
      // Degraded read: XOR of the same extent range on every surviving
      // member (each member stores its unit of the row at the same
      // disk-local sectors, so the addresses coincide).
      ++stats_.reconstructed_reads;
      for (std::size_t d = 0; d < disks_.size(); ++d) {
        if (disk_failed(d)) continue;
        issue_child(d, extent.sector, extent.bytes, OpType::kRead, slot);
      }
    } else {
      issue_child(extent.disk, extent.sector, extent.bytes, OpType::kRead,
                  slot);
    }
  }
}

void RaidController::plan_raid5_rows() {
  plan_reads_.clear();
  plan_writes_.clear();
  row_plans_.clear();
  const Bytes full_row = geometry_.stripe_unit * geometry_.data_disks();
  // map_into emits rows in non-decreasing order, so each row's extents are
  // one contiguous run [begin, end).
  std::size_t begin = 0;
  while (begin < extents_.size()) {
    const std::uint64_t row = extents_[begin].row;
    std::size_t end = begin + 1;
    while (end < extents_.size() && extents_[end].row == row) ++end;

    Bytes row_bytes = 0;
    Bytes min_offset = ~0ULL;
    Bytes max_end = 0;
    bool touches_failed = false;
    for (std::size_t i = begin; i < end; ++i) {
      const auto& extent = extents_[i];
      row_bytes += extent.bytes;
      min_offset = std::min(min_offset, extent.offset_in_unit);
      max_end = std::max(max_end, extent.offset_in_unit + extent.bytes);
      touches_failed = touches_failed || disk_failed(extent.disk);
    }
    RowPlan plan;
    plan.reads_begin = plan_reads_.size();
    plan.writes_begin = plan_writes_.size();
    const std::size_t pd = geometry_.parity_disk(row);
    const auto parity =
        geometry_.parity_extent(row, min_offset, max_end - min_offset);

    if (row_bytes == full_row) {
      // Full-stripe write: parity computed in-core, no reads. A failed
      // member simply receives nothing.
      ++stats_.full_stripe_writes;
      for (std::size_t i = begin; i < end; ++i) {
        if (!disk_failed(extents_[i].disk)) plan_writes_.push_back(extents_[i]);
      }
      if (!disk_failed(pd)) {
        plan_writes_.push_back(
            geometry_.parity_extent(row, 0, geometry_.stripe_unit));
      }
    } else if (disk_failed(pd)) {
      // Parity member is gone: data writes land directly, nothing to
      // maintain until rebuild.
      plan_writes_.insert(plan_writes_.end(), extents_.begin() + begin,
                          extents_.begin() + end);
    } else if (touches_failed) {
      // Reconstruct-write: the target unit's member is gone, so new parity
      // must be recomputed from the surviving data units over the span.
      ++stats_.rmw_rows;
      for (std::size_t d = 0; d < disks_.size(); ++d) {
        if (disk_failed(d) || d == pd) continue;
        RaidGeometry::Extent read_extent = parity;  // same row-local range
        read_extent.disk = d;
        plan_reads_.push_back(read_extent);
      }
      for (std::size_t i = begin; i < end; ++i) {
        if (!disk_failed(extents_[i].disk)) plan_writes_.push_back(extents_[i]);
      }
      plan_writes_.push_back(parity);
    } else {
      // Classic read-modify-write.
      ++stats_.rmw_rows;
      plan_reads_.insert(plan_reads_.end(), extents_.begin() + begin,
                         extents_.begin() + end);
      plan_reads_.push_back(parity);
      plan_writes_.insert(plan_writes_.end(), extents_.begin() + begin,
                          extents_.begin() + end);
      plan_writes_.push_back(parity);
    }
    plan.reads_end = plan_reads_.size();
    plan.writes_end = plan_writes_.size();
    row_plans_.push_back(plan);
    begin = end;
  }
}

void RaidController::issue_write(std::uint32_t slot, Sector sector,
                                 Bytes bytes) {
  geometry_.map_into(sector * kSectorSize, bytes, extents_);

  if (geometry_.level == RaidLevel::kRaid0) {
    pending_[slot] = child_count(extents_.size());
    stats_.child_writes += extents_.size();
    for (const auto& extent : extents_) {
      issue_child(extent.disk, extent.sector, extent.bytes, OpType::kWrite,
                  slot);
    }
    return;
  }

  // RAID-5: plan every row (full-stripe vs RMW, accounting for a failed
  // member), then count all children before issuing so completions cannot
  // race the loop.
  plan_raid5_rows();
  const std::size_t total = plan_reads_.size() + plan_writes_.size();
  if (total == 0) {
    // Degenerate degraded corner: nothing physical to do (e.g. the only
    // touched data unit and the parity are both the failed member's span).
    pending_[slot] = 1;
    sim_.schedule_in(0.0, *this, slot);
    return;
  }
  pending_[slot] = child_count(total);

  for (const RowPlan& plan : row_plans_) {
    if (plan.reads_begin == plan.reads_end) {
      stats_.child_writes += plan.writes_end - plan.writes_begin;
      for (std::size_t w = plan.writes_begin; w < plan.writes_end; ++w) {
        const auto& extent = plan_writes_[w];
        issue_child(extent.disk, extent.sector, extent.bytes, OpType::kWrite,
                    slot);
      }
      continue;
    }

    Transaction& txn = txns_[slot];
    if (txn.rows_used == txn.rows.size()) txn.rows.emplace_back();
    const std::uint32_t phase_index = txn.rows_used++;
    RowPhase& phase = txn.rows[phase_index];
    phase.reads_pending = plan.reads_end - plan.reads_begin;
    phase.deferred_writes.assign(plan_writes_.begin() + plan.writes_begin,
                                 plan_writes_.begin() + plan.writes_end);

    stats_.child_reads += plan.reads_end - plan.reads_begin;
    for (std::size_t r = plan.reads_begin; r < plan.reads_end; ++r) {
      const auto& extent = plan_reads_[r];
      issue_child(extent.disk, extent.sector, extent.bytes, OpType::kRead,
                  slot, std::uint64_t{phase_index} + 1);
    }
  }
}

void RaidController::issue_child(std::size_t disk, Sector sector, Bytes bytes,
                                 OpType op, std::uint32_t slot,
                                 std::uint64_t phase) {
  IoRequest child{next_child_id_++, sector, bytes, op};
  disks_[disk]->submit(child,
                       CompletionCallback(*this, child_tag(slot, phase)));
}

void RaidController::row_read_done(std::uint32_t slot, std::uint32_t phase) {
  RowPhase& row = txns_[slot].rows[phase];
  if (--row.reads_pending == 0) {
    // This read is still counted in `pending`, so the slot cannot be
    // released while its deferred writes go out.
    stats_.child_writes += row.deferred_writes.size();
    for (const auto& extent : row.deferred_writes) {
      issue_child(extent.disk, extent.sector, extent.bytes, OpType::kWrite,
                  slot);
    }
  }
  child_done(slot);
}

void RaidController::child_done(std::uint32_t slot) {
  if (--pending_[slot] != 0) return;
  Transaction& txn = txns_[slot];
  const Seconds finish = sim_.now();
  outstanding_ -= txn.members.size();
  // Member callbacks may submit more I/O, which only appends to batch_:
  // the slab is not touched until the next dispatch event.
  for (auto& member : txn.members) {
    IoCompletion completion{member.request.id, member.submit_time, finish,
                            member.request.bytes, member.request.op};
    member.done(completion);
  }
  txn.members.clear();
  txn.rows_used = 0;
  free_txns_.push_back(slot);
}

}  // namespace tracer::storage
