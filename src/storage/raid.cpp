#include "storage/raid.h"

#include <algorithm>

namespace tracer::storage {

RaidGeometry::RaidGeometry(RaidLevel lvl, std::size_t disks, Bytes unit,
                           Bytes disk_cap)
    : level(lvl), disk_count(disks), stripe_unit(unit), disk_capacity(disk_cap) {
  if (disks == 0 || (lvl == RaidLevel::kRaid5 && disks < 3)) {
    throw std::invalid_argument("RaidGeometry: RAID-5 needs >= 3 disks");
  }
  if (unit == 0 || unit % kSectorSize != 0) {
    throw std::invalid_argument(
        "RaidGeometry: stripe unit must be a positive sector multiple");
  }
  if (disk_cap < unit) {
    throw std::invalid_argument("RaidGeometry: disk capacity < stripe unit");
  }
}

Bytes RaidGeometry::capacity() const {
  return rows() * stripe_unit * data_disks();
}

std::size_t RaidGeometry::parity_disk(std::uint64_t row) const {
  if (level != RaidLevel::kRaid5) {
    throw std::logic_error("parity_disk: not a parity RAID level");
  }
  return disk_count - 1 - static_cast<std::size_t>(row % disk_count);
}

void RaidGeometry::map_into(Bytes logical_byte, Bytes bytes,
                            std::vector<Extent>& out) const {
  if (logical_byte + bytes > capacity()) {
    throw std::out_of_range("RaidGeometry::map_into: extent beyond capacity");
  }
  out.clear();
  Bytes remaining = bytes;
  Bytes at = logical_byte;
  while (remaining > 0) {
    const std::uint64_t unit_index = at / stripe_unit;
    const Bytes offset = at % stripe_unit;
    const Bytes chunk = std::min<Bytes>(remaining, stripe_unit - offset);

    const std::uint64_t row = unit_index / data_disks();
    const auto position = static_cast<std::size_t>(unit_index % data_disks());

    std::size_t disk;
    if (level == RaidLevel::kRaid5) {
      // Left-symmetric: data units fill the row starting just after the
      // parity disk, wrapping around.
      const std::size_t pd = parity_disk(row);
      disk = (pd + 1 + position) % disk_count;
    } else {
      disk = position;
    }

    Extent extent;
    extent.disk = disk;
    extent.sector = (row * stripe_unit + offset) / kSectorSize;
    extent.bytes = chunk;
    extent.row = row;
    extent.offset_in_unit = offset;
    out.push_back(extent);

    at += chunk;
    remaining -= chunk;
  }
}

RaidGeometry::Extent RaidGeometry::parity_extent(std::uint64_t row,
                                                 Bytes offset_in_unit,
                                                 Bytes bytes) const {
  Extent extent;
  extent.disk = parity_disk(row);
  extent.sector = (row * stripe_unit + offset_in_unit) / kSectorSize;
  extent.bytes = bytes;
  extent.row = row;
  extent.offset_in_unit = offset_in_unit;
  return extent;
}

}  // namespace tracer::storage
