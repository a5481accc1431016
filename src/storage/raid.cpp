#include "storage/raid.h"

#include <algorithm>

#include "storage/io_request.h"

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
  if (!range_fits(logical_byte, bytes, capacity(), 1)) {
    throw std::out_of_range("RaidGeometry::map_into: extent beyond capacity");
  }
  out.clear();
  if (bytes == 0) return;
  // Locate the first unit once, then walk the rest incrementally: each
  // further unit starts at offset 0 on the next position, and a new row
  // moves parity one disk back (left-symmetric).
  const std::uint64_t unit_index = logical_byte / stripe_unit;
  Bytes offset = logical_byte % stripe_unit;
  const std::size_t data = data_disks();
  std::uint64_t row = unit_index / data;
  auto position = static_cast<std::size_t>(unit_index - row * data);
  const bool raid5 = level == RaidLevel::kRaid5;
  std::size_t pd = raid5 ? parity_disk(row) : 0;

  Bytes remaining = bytes;
  while (true) {
    const Bytes chunk = std::min<Bytes>(remaining, stripe_unit - offset);
    std::size_t disk = position;
    if (raid5) {
      // Data units fill the row starting just after the parity disk,
      // wrapping around.
      disk = pd + 1 + position;
      if (disk >= disk_count) disk -= disk_count;
    }
    Extent extent;
    extent.disk = disk;
    extent.sector = (row * stripe_unit + offset) / kSectorSize;
    extent.bytes = chunk;
    extent.row = row;
    extent.offset_in_unit = offset;
    out.push_back(extent);

    remaining -= chunk;
    if (remaining == 0) return;
    offset = 0;
    if (++position == data) {
      position = 0;
      ++row;
      pd = pd == 0 ? disk_count - 1 : pd - 1;
    }
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
