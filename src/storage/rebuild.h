// Background RAID-5 rebuild onto a replaced member.
//
// After a failure, the controller serves degraded I/O (raid_controller.h);
// this engine restores redundancy: chunk by chunk it reads the surviving
// members' units and writes the reconstructed data to the replacement,
// throttled to a configurable rate so foreground latency stays bounded —
// the classic rebuild-speed/impact trade-off every array firmware exposes.
// When the last chunk lands, the controller leaves degraded mode.
//
// Rebuild I/O flows through the same member-disk queues as foreground
// traffic, so its performance impact is emergent, not modelled.
#pragma once

#include <cstdint>
#include <functional>

#include "storage/raid_controller.h"

namespace tracer::storage {

struct RebuildParams {
  Bytes chunk = kMiB;           ///< reconstruction granularity
  double throttle_mbps = 20.0;  ///< ceiling on reconstructed bytes/second
  Bytes limit_bytes = 0;        ///< rebuild only this much (0 = whole disk)
};

class RebuildProcess final : private IoSink {
 public:
  /// The controller must already be degraded; the rebuild targets its
  /// failed member (assumed physically replaced by an identical drive).
  RebuildProcess(sim::Simulator& sim, RaidController& controller,
                 const RebuildParams& params,
                 std::function<void()> on_complete = {});

  /// Begin reconstructing. Progress is observable while the simulation
  /// runs; on completion the controller's member is restored.
  void start();

  bool running() const { return running_; }
  bool complete() const { return complete_; }
  double progress() const;  ///< fraction of target bytes rebuilt
  Bytes rebuilt_bytes() const { return rebuilt_; }
  Seconds elapsed() const { return finished_at_ - started_at_; }

 private:
  /// Completion tags: a surviving member's read of the current chunk, or
  /// the replacement's write of it.
  static constexpr std::uint64_t kChunkRead = 0;
  static constexpr std::uint64_t kChunkWrite = 1;

  void rebuild_next_chunk();
  void on_complete(std::uint64_t tag, const IoCompletion&) override;

  sim::Simulator& sim_;
  RaidController& controller_;
  RebuildParams params_;
  std::function<void()> on_complete_;
  std::size_t target_disk_ = 0;
  Bytes total_ = 0;
  Bytes rebuilt_ = 0;
  Bytes cursor_ = 0;  ///< next disk-local byte to reconstruct
  // The chunk in flight (one at a time).
  Sector chunk_sector_ = 0;
  Bytes chunk_bytes_ = 0;
  Seconds chunk_began_ = 0.0;
  std::size_t reads_left_ = 0;
  bool running_ = false;
  bool complete_ = false;
  Seconds started_at_ = 0.0;
  Seconds finished_at_ = 0.0;
};

}  // namespace tracer::storage
