// RAID address geometry: striping and (for RAID-5) left-symmetric rotating
// parity. Pure address arithmetic, separated from the controller so it can
// be property-tested exhaustively.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/types.h"

namespace tracer::storage {

enum class RaidLevel { kRaid0, kRaid5 };

struct RaidGeometry {
  RaidLevel level = RaidLevel::kRaid5;
  std::size_t disk_count = 6;
  Bytes stripe_unit = 128 * kKiB;  ///< testbed strip size (§VI)
  Bytes disk_capacity = 0;

  RaidGeometry() = default;
  RaidGeometry(RaidLevel lvl, std::size_t disks, Bytes unit, Bytes disk_cap);

  std::size_t data_disks() const {
    return level == RaidLevel::kRaid5 ? disk_count - 1 : disk_count;
  }

  /// Usable logical capacity.
  Bytes capacity() const;

  /// Stripe units per disk.
  std::uint64_t rows() const { return disk_capacity / stripe_unit; }

  /// Index of the disk holding parity for a stripe row (left-symmetric:
  /// parity starts on the last disk and rotates backwards).
  std::size_t parity_disk(std::uint64_t row) const;

  /// One contiguous extent of a logical request on one member disk.
  struct Extent {
    std::size_t disk = 0;
    Sector sector = 0;        ///< disk-local starting sector
    Bytes bytes = 0;
    std::uint64_t row = 0;    ///< stripe row this extent belongs to
    Bytes offset_in_unit = 0; ///< byte offset within the stripe unit
  };

  /// Map [logical_byte, logical_byte + bytes) onto member-disk extents,
  /// split at stripe-unit boundaries, in logical order. Clears `out` and
  /// reuses its capacity, so the hot path allocates nothing. The extents'
  /// `row` fields are non-decreasing (logical order walks rows forward),
  /// which RaidController exploits to group rows with a linear scan
  /// instead of a std::map.
  void map_into(Bytes logical_byte, Bytes bytes, std::vector<Extent>& out) const;

  /// Disk-local sector of the parity unit in `row`, plus its disk.
  Extent parity_extent(std::uint64_t row, Bytes offset_in_unit,
                       Bytes bytes) const;
};

}  // namespace tracer::storage
