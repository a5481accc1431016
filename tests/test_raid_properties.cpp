// Parameterized property sweeps for RAID geometry: address-mapping
// invariants must hold for every (disk count, stripe unit) the testbed
// could plausibly be configured with.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "storage/raid.h"
#include "util/rng.h"

namespace tracer::storage {
namespace {

using GeometryParam = std::tuple<std::size_t, Bytes>;  // (disks, unit)

class RaidGeometryProperty
    : public ::testing::TestWithParam<GeometryParam> {
 protected:
  RaidGeometry geometry() const {
    const auto [disks, unit] = GetParam();
    return RaidGeometry(RaidLevel::kRaid5, disks, unit,
                        4ULL * 1024 * 1024 * 1024);
  }
};

TEST_P(RaidGeometryProperty, CapacityIsDataDisksShare) {
  const auto g = geometry();
  EXPECT_EQ(g.capacity(), g.rows() * g.stripe_unit * g.data_disks());
  EXPECT_EQ(g.data_disks(), g.disk_count - 1);
}

TEST_P(RaidGeometryProperty, ParityRotationCoversAllDisksWithPeriodN) {
  const auto g = geometry();
  std::set<std::size_t> seen;
  for (std::uint64_t row = 0; row < g.disk_count; ++row) {
    seen.insert(g.parity_disk(row));
    EXPECT_EQ(g.parity_disk(row), g.parity_disk(row + g.disk_count));
  }
  EXPECT_EQ(seen.size(), g.disk_count);
}

TEST_P(RaidGeometryProperty, RandomExtentsPreserveBytesAndBounds) {
  const auto g = geometry();
  util::Rng rng(std::get<0>(GetParam()) * 1000 + 7);
  std::vector<RaidGeometry::Extent> extents;
  for (int trial = 0; trial < 200; ++trial) {
    const Bytes size =
        (1 + rng.below(2 * g.stripe_unit / kSectorSize)) * kSectorSize;
    const Bytes offset =
        rng.below((g.capacity() - size) / kSectorSize) * kSectorSize;
    g.map_into(offset, size, extents);
    Bytes total = 0;
    for (const auto& extent : extents) {
      total += extent.bytes;
      EXPECT_LT(extent.disk, g.disk_count);
      EXPECT_NE(extent.disk, g.parity_disk(extent.row));
      EXPECT_LT(extent.offset_in_unit + extent.bytes, g.stripe_unit + 1);
      EXPECT_LE((extent.sector * kSectorSize) + extent.bytes,
                g.disk_capacity);
    }
    EXPECT_EQ(total, size);
  }
}

TEST_P(RaidGeometryProperty, ContiguousUnitsNeverCollide) {
  const auto g = geometry();
  std::map<std::pair<std::size_t, Sector>, std::uint64_t> seen;
  const std::uint64_t units =
      std::min<std::uint64_t>(500, g.capacity() / g.stripe_unit);
  std::vector<RaidGeometry::Extent> extents;
  for (std::uint64_t unit = 0; unit < units; ++unit) {
    g.map_into(unit * g.stripe_unit, g.stripe_unit, extents);
    ASSERT_EQ(extents.size(), 1u);
    const auto key = std::make_pair(extents[0].disk, extents[0].sector);
    EXPECT_EQ(seen.count(key), 0u) << "unit " << unit << " collides";
    seen[key] = unit;
  }
}

TEST_P(RaidGeometryProperty, RowMembersArePairwiseDistinct) {
  const auto g = geometry();
  std::vector<RaidGeometry::Extent> extents;
  for (std::uint64_t row = 0; row < 3 * g.disk_count; ++row) {
    std::set<std::size_t> disks;
    for (std::size_t position = 0; position < g.data_disks(); ++position) {
      const Bytes addr =
          (row * g.data_disks() + position) * g.stripe_unit;
      if (addr + g.stripe_unit > g.capacity()) break;
      g.map_into(addr, g.stripe_unit, extents);
      disks.insert(extents[0].disk);
    }
    disks.insert(g.parity_disk(row));
    EXPECT_EQ(disks.size(), g.disk_count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DiskCountsAndUnits, RaidGeometryProperty,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 8),
                       ::testing::Values(64 * kKiB, 128 * kKiB, 256 * kKiB)),
    [](const ::testing::TestParamInfo<GeometryParam>& param_info) {
      return "d" + std::to_string(std::get<0>(param_info.param)) + "_u" +
             std::to_string(std::get<1>(param_info.param) / kKiB) + "K";
    });

}  // namespace
}  // namespace tracer::storage
