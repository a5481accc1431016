#include "storage/raid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "util/rng.h"

namespace tracer::storage {
namespace {

RaidGeometry testbed_geometry(std::size_t disks = 6) {
  return RaidGeometry(RaidLevel::kRaid5, disks, 128 * kKiB,
                      500ULL * 1000 * 1000 * 1000);
}

TEST(RaidGeometry, RejectsInvalidConfigurations) {
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid5, 2, 128 * kKiB, kGiB),
               std::invalid_argument);
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid0, 0, 128 * kKiB, kGiB),
               std::invalid_argument);
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid5, 4, 0, kGiB),
               std::invalid_argument);
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid5, 4, 100, kGiB),
               std::invalid_argument);  // not sector multiple
  EXPECT_THROW(RaidGeometry(RaidLevel::kRaid5, 4, kMiB, 1024),
               std::invalid_argument);  // capacity < unit
}

TEST(RaidGeometry, CapacityExcludesParity) {
  const auto geometry = testbed_geometry(6);
  EXPECT_EQ(geometry.data_disks(), 5u);
  EXPECT_EQ(geometry.capacity(), geometry.rows() * geometry.stripe_unit * 5);

  RaidGeometry raid0(RaidLevel::kRaid0, 6, 128 * kKiB,
                     500ULL * 1000 * 1000 * 1000);
  EXPECT_EQ(raid0.data_disks(), 6u);
  EXPECT_GT(raid0.capacity(), geometry.capacity());
}

TEST(RaidGeometry, ParityRotatesThroughAllDisks) {
  const auto geometry = testbed_geometry(6);
  std::set<std::size_t> parity_disks;
  for (std::uint64_t row = 0; row < 6; ++row) {
    const std::size_t pd = geometry.parity_disk(row);
    EXPECT_LT(pd, 6u);
    parity_disks.insert(pd);
  }
  EXPECT_EQ(parity_disks.size(), 6u);  // left-symmetric full rotation
  EXPECT_EQ(geometry.parity_disk(0), 5u);
  EXPECT_EQ(geometry.parity_disk(1), 4u);
  EXPECT_EQ(geometry.parity_disk(6), 5u);  // period = disk count
}

TEST(RaidGeometry, Raid0HasNoParityDisk) {
  RaidGeometry raid0(RaidLevel::kRaid0, 4, 128 * kKiB, kGiB);
  EXPECT_THROW(raid0.parity_disk(0), std::logic_error);
}

TEST(RaidGeometry, MapSplitsAtStripeUnitBoundaries) {
  const auto geometry = testbed_geometry(6);
  // 300 KB starting 64 KB into unit 0: 64K + 128K + 108K.
  std::vector<RaidGeometry::Extent> extents;
  geometry.map_into(64 * kKiB, 300 * kKiB, extents);
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].bytes, 64 * kKiB);
  EXPECT_EQ(extents[1].bytes, 128 * kKiB);
  EXPECT_EQ(extents[2].bytes, 108 * kKiB);
  EXPECT_EQ(extents[0].offset_in_unit, 64 * kKiB);
  EXPECT_EQ(extents[1].offset_in_unit, 0u);
}

TEST(RaidGeometry, MapRejectsBeyondCapacity) {
  const auto geometry = testbed_geometry(6);
  std::vector<RaidGeometry::Extent> extents;
  EXPECT_THROW(geometry.map_into(geometry.capacity() - 4096, 8192, extents),
               std::out_of_range);
}

TEST(RaidGeometry, MapRejectsExtentWhoseEndOverflows) {
  const auto geometry = testbed_geometry(6);
  std::vector<RaidGeometry::Extent> extents;
  // logical_byte + bytes wraps past 2^64 to a small value.
  EXPECT_THROW(geometry.map_into(~Bytes{0} - 1023, 4096, extents),
               std::out_of_range);
  EXPECT_THROW(geometry.map_into(geometry.capacity() + 1, 0, extents),
               std::out_of_range);
  geometry.map_into(geometry.capacity(), 0, extents);
  EXPECT_TRUE(extents.empty());
}

/// map_into as one division per stripe unit, the definition the
/// incremental walk must reproduce extent for extent.
std::vector<RaidGeometry::Extent> reference_map(const RaidGeometry& g,
                                                Bytes at, Bytes bytes) {
  std::vector<RaidGeometry::Extent> out;
  while (bytes > 0) {
    const std::uint64_t unit_index = at / g.stripe_unit;
    const Bytes offset = at % g.stripe_unit;
    const Bytes chunk = std::min<Bytes>(bytes, g.stripe_unit - offset);
    const std::uint64_t row = unit_index / g.data_disks();
    const auto position = static_cast<std::size_t>(unit_index % g.data_disks());
    RaidGeometry::Extent extent;
    extent.disk = g.level == RaidLevel::kRaid5
                      ? (g.parity_disk(row) + 1 + position) % g.disk_count
                      : position;
    extent.sector = (row * g.stripe_unit + offset) / kSectorSize;
    extent.bytes = chunk;
    extent.row = row;
    extent.offset_in_unit = offset;
    out.push_back(extent);
    at += chunk;
    bytes -= chunk;
  }
  return out;
}

TEST(RaidGeometry, IncrementalMapMatchesPerUnitDivision) {
  // Power-of-two and other stripe units; requests span up to four rows so
  // parity rotation wraps mid-request.
  const RaidGeometry geometries[] = {
      RaidGeometry(RaidLevel::kRaid5, 6, 128 * kKiB, kGiB),
      RaidGeometry(RaidLevel::kRaid5, 3, 4 * kKiB, kGiB),
      RaidGeometry(RaidLevel::kRaid5, 5, 96 * kKiB, kGiB),
      RaidGeometry(RaidLevel::kRaid5, 4, 3 * kSectorSize, kGiB),
      RaidGeometry(RaidLevel::kRaid0, 4, 64 * kKiB, kGiB),
      RaidGeometry(RaidLevel::kRaid0, 2, 5 * kSectorSize, kGiB),
  };
  util::Rng rng(17);
  std::vector<RaidGeometry::Extent> extents;
  for (const auto& g : geometries) {
    const Bytes row_bytes = g.stripe_unit * g.data_disks();
    for (int trial = 0; trial < 500; ++trial) {
      const Bytes bytes = 1 + rng.below(4 * row_bytes);
      const Bytes at = rng.below(g.capacity() - bytes + 1);
      g.map_into(at, bytes, extents);
      const auto expected = reference_map(g, at, bytes);
      ASSERT_EQ(extents.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(extents[i].disk, expected[i].disk);
        EXPECT_EQ(extents[i].sector, expected[i].sector);
        EXPECT_EQ(extents[i].bytes, expected[i].bytes);
        EXPECT_EQ(extents[i].row, expected[i].row);
        EXPECT_EQ(extents[i].offset_in_unit, expected[i].offset_in_unit);
      }
    }
  }
}

TEST(RaidGeometry, DataNeverLandsOnParityDisk) {
  const auto geometry = testbed_geometry(6);
  std::vector<RaidGeometry::Extent> extents;
  for (std::uint64_t unit = 0; unit < 600; ++unit) {
    geometry.map_into(unit * geometry.stripe_unit, geometry.stripe_unit,
                      extents);
    ASSERT_EQ(extents.size(), 1u);
    EXPECT_NE(extents[0].disk, geometry.parity_disk(extents[0].row));
  }
}

TEST(RaidGeometry, RowFillsEveryNonParityDiskExactlyOnce) {
  const auto geometry = testbed_geometry(6);
  std::vector<RaidGeometry::Extent> extents;
  for (std::uint64_t row = 0; row < 20; ++row) {
    std::set<std::size_t> disks;
    for (std::size_t position = 0; position < geometry.data_disks();
         ++position) {
      const Bytes addr =
          (row * geometry.data_disks() + position) * geometry.stripe_unit;
      geometry.map_into(addr, geometry.stripe_unit, extents);
      ASSERT_EQ(extents.size(), 1u);
      EXPECT_EQ(extents[0].row, row);
      disks.insert(extents[0].disk);
    }
    disks.insert(geometry.parity_disk(row));
    EXPECT_EQ(disks.size(), geometry.disk_count);  // full coverage, no dup
  }
}

TEST(RaidGeometry, MappingIsInjectivePerDiskSector) {
  // Property: distinct logical units never collide on (disk, sector).
  const auto geometry = testbed_geometry(5);
  std::map<std::pair<std::size_t, Sector>, Bytes> seen;
  std::vector<RaidGeometry::Extent> extents;
  for (std::uint64_t unit = 0; unit < 1000; ++unit) {
    const Bytes addr = unit * geometry.stripe_unit;
    geometry.map_into(addr, geometry.stripe_unit, extents);
    ASSERT_EQ(extents.size(), 1u);
    const auto key = std::make_pair(extents[0].disk, extents[0].sector);
    ASSERT_EQ(seen.count(key), 0u) << "collision at logical unit " << unit;
    seen[key] = addr;
  }
}

TEST(RaidGeometry, MapPreservesTotalBytes) {
  const auto geometry = testbed_geometry(6);
  // Property sweep over odd sizes and offsets.
  std::vector<RaidGeometry::Extent> extents;
  for (Bytes offset : {0ULL, 512ULL, 4096ULL, 130048ULL, 262144ULL}) {
    for (Bytes size : {512ULL, 4096ULL, 65536ULL, 131072ULL, 1048576ULL}) {
      geometry.map_into(offset, size, extents);
      Bytes total = 0;
      for (const auto& extent : extents) total += extent.bytes;
      EXPECT_EQ(total, size);
    }
  }
}

TEST(RaidGeometry, ParityExtentMatchesRowAndOffset) {
  const auto geometry = testbed_geometry(6);
  const auto parity = geometry.parity_extent(3, 4096, 8192);
  EXPECT_EQ(parity.disk, geometry.parity_disk(3));
  EXPECT_EQ(parity.sector, (3 * geometry.stripe_unit + 4096) / kSectorSize);
  EXPECT_EQ(parity.bytes, 8192u);
  EXPECT_EQ(parity.row, 3u);
}

TEST(RaidGeometry, SequentialUnitsRotateAcrossDisks) {
  // Consecutive logical units in one row land on distinct disks (striping).
  const auto geometry = testbed_geometry(6);
  std::set<std::size_t> disks;
  std::vector<RaidGeometry::Extent> extents;
  for (std::size_t position = 0; position < geometry.data_disks();
       ++position) {
    geometry.map_into(position * geometry.stripe_unit, geometry.stripe_unit,
                      extents);
    disks.insert(extents[0].disk);
  }
  EXPECT_EQ(disks.size(), geometry.data_disks());
}

}  // namespace
}  // namespace tracer::storage
