// Disk-array enclosure: member disks + RAID controller + non-disk components
// (controller electronics, fans, PSU overhead — the paper's Fig 7 shows the
// non-disk share as the power of the array with zero disks).
//
// The array is the storage-system-under-test: the replay engine submits
// logical I/O to it, and the power analyzer clamps one channel around it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "power/power_timeline.h"
#include "storage/hdd_model.h"
#include "storage/raid_controller.h"
#include "storage/ssd_model.h"

namespace tracer::storage {

enum class DiskKind { kHdd, kSsd };

struct ArrayConfig {
  std::string name = "raid5-hdd6";
  RaidLevel level = RaidLevel::kRaid5;
  Bytes stripe_unit = 128 * kKiB;  ///< Table II / §VI strip size
  std::size_t disk_count = 6;
  DiskKind kind = DiskKind::kHdd;
  HddParams hdd;   ///< used when kind == kHdd
  SsdParams ssd;   ///< used when kind == kSsd
  Watts enclosure_base_watts = 30.0;  ///< non-disk idle draw (Fig 7, 0 disks)
  Seconds controller_overhead = 0.05e-3;
  std::uint64_t seed = 42;

  /// Table II HDD testbed: 6 x Seagate 7200.12, RAID-5, 128 KB strips,
  /// controller cache disabled.
  static ArrayConfig hdd_testbed(std::size_t disks = 6);

  /// §VI-G SSD testbed: 4 x Memoright 32 GB SLC, RAID-5, 128 KB strips.
  /// Enclosure base chosen so idle totals the stated 195.8 W.
  static ArrayConfig ssd_testbed(std::size_t disks = 4);
};

class DiskArray final : public BlockDevice {
 public:
  DiskArray(sim::Simulator& sim, const ArrayConfig& config);

  // BlockDevice
  Bytes capacity() const override {
    return controller_ ? controller_->capacity() : 0;
  }
  void submit(const IoRequest& request, CompletionCallback done) override;
  std::size_t outstanding() const override { return controller_->outstanding(); }
  std::size_t max_concurrent_events() const override {
    return controller_ ? controller_->max_concurrent_events() : 0;
  }

  // PowerSource: enclosure + every member disk, scaled by PSU loss.
  std::string name() const override { return config_.name; }
  Watts power_at(Seconds t) const override;
  Joules energy_until(Seconds t) override;

  const ArrayConfig& config() const { return config_; }
  const RaidController& controller() const { return *controller_; }
  /// Mutable access for fault injection (fail/restore members).
  RaidController& controller() { return *controller_; }
  std::size_t disk_count() const { return disks_.size(); }
  BlockDevice& disk(std::size_t i) { return *disks_.at(i); }

  /// Member disks as HDD models, for power-management policies. Empty when
  /// the array is SSD-based (SSDs have no spindle to stop).
  std::vector<HddModel*> hdd_disks();

 private:
  ArrayConfig config_;
  std::vector<std::unique_ptr<BlockDevice>> disks_;
  std::unique_ptr<RaidController> controller_;
  power::PowerTimeline enclosure_;
};

}  // namespace tracer::storage
