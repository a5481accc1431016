#include "storage/disk_array.h"

#include <stdexcept>

namespace tracer::storage {

ArrayConfig ArrayConfig::hdd_testbed(std::size_t disks) {
  ArrayConfig config;
  config.name = "raid5-hdd" + std::to_string(disks);
  config.kind = DiskKind::kHdd;
  config.disk_count = disks;
  config.level = RaidLevel::kRaid5;
  config.stripe_unit = 128 * kKiB;
  config.hdd = HddParams{};
  config.enclosure_base_watts = 30.0;
  return config;
}

ArrayConfig ArrayConfig::ssd_testbed(std::size_t disks) {
  ArrayConfig config;
  config.name = "raid5-ssd" + std::to_string(disks);
  config.kind = DiskKind::kSsd;
  config.disk_count = disks;
  config.level = RaidLevel::kRaid5;
  config.stripe_unit = 128 * kKiB;
  config.ssd = SsdParams{};
  // §VI-G: array idles at 195.8 W with four 3.5 W SSDs -> 181.8 W enclosure
  // (their SAN-class chassis dwarfs the drives).
  config.enclosure_base_watts = 195.8 - 4 * 3.5;
  return config;
}

DiskArray::DiskArray(sim::Simulator& sim, const ArrayConfig& config)
    : BlockDevice(sim),
      config_(config),
      enclosure_(config.enclosure_base_watts) {
  util::Rng seeder(config_.seed);
  disks_.reserve(config_.disk_count);
  std::vector<BlockDevice*> raw;
  Bytes disk_capacity = 0;
  for (std::size_t i = 0; i < config_.disk_count; ++i) {
    const std::uint64_t disk_seed = seeder.next();
    if (config_.kind == DiskKind::kHdd) {
      HddParams p = config_.hdd;
      p.name += "-" + std::to_string(i);
      disks_.push_back(std::make_unique<HddModel>(sim, p, disk_seed));
      disk_capacity = p.capacity;
    } else {
      SsdParams p = config_.ssd;
      p.name += "-" + std::to_string(i);
      disks_.push_back(std::make_unique<SsdModel>(sim, p, disk_seed));
      disk_capacity = p.capacity;
    }
    raw.push_back(disks_.back().get());
  }
  // Fig 7 sweeps the disk population down to zero: an empty enclosure is a
  // valid power source but cannot accept I/O.
  if (config_.disk_count > 0) {
    const RaidLevel level =
        config_.disk_count >= 3 ? config_.level : RaidLevel::kRaid0;
    RaidGeometry geometry(level, config_.disk_count, config_.stripe_unit,
                          disk_capacity);
    controller_ = std::make_unique<RaidController>(
        sim, geometry, std::move(raw), config_.controller_overhead);
  }
}

void DiskArray::submit(const IoRequest& request, CompletionCallback done) {
  if (!controller_) {
    throw std::logic_error("DiskArray: no disks installed");
  }
  controller_->submit(request, done);
}

std::vector<HddModel*> DiskArray::hdd_disks() {
  std::vector<HddModel*> hdds;
  if (config_.kind != DiskKind::kHdd) return hdds;
  hdds.reserve(disks_.size());
  for (auto& disk : disks_) {
    hdds.push_back(static_cast<HddModel*>(disk.get()));
  }
  return hdds;
}

Watts DiskArray::power_at(Seconds t) const {
  Watts total = enclosure_.power_at(t);
  for (const auto& disk : disks_) total += disk->power_at(t);
  return total;
}

Joules DiskArray::energy_until(Seconds t) {
  Joules total = enclosure_.energy_until(t);
  for (const auto& disk : disks_) total += disk->energy_until(t);
  return total;
}

}  // namespace tracer::storage
