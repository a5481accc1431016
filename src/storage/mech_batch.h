// Shared service-time mechanics for the disk models — the single source of
// truth for HDD seek/rotation/transfer arithmetic and SSD channel/latency
// math. HddModel and SsdModel plan each request here when its service
// starts; the plan functions consume the mech state and RNG in a fixed
// order, so a replay's doubles are reproducible bit for bit (the golden
// reports in tests/test_golden_reports.cpp pin them).
#pragma once

#include <cstddef>
#include <cstdint>

#include "storage/hdd_model.h"
#include "storage/mech_types.h"
#include "storage/ssd_model.h"
#include "util/rng.h"
#include "util/types.h"

namespace tracer::storage {

// ---------------------------------------------------------------------------
// HDD mechanics
// ---------------------------------------------------------------------------

/// Exactly the derivation HddModel's constructor performs.
HddMechGeometry derive_hdd_geometry(const HddParams& params);

std::uint64_t hdd_cylinder_of(const HddParams& params,
                              const HddMechGeometry& geom, Sector sector);

double hdd_media_rate_bytes_per_sec(const HddParams& params,
                                    std::uint64_t cyl);

Seconds hdd_seek_time(const HddParams& params, const HddMechGeometry& geom,
                      std::uint64_t from_cyl, std::uint64_t to_cyl,
                      bool sequential);

/// Plan one request and advance the mech state + RNG, with the exact
/// computation order of HddModel::start_next (the RNG is drawn only for
/// non-sequential requests, after the sequential test).
HddServicePlan hdd_plan_service(const HddParams& params,
                                const HddMechGeometry& geom,
                                HddMechState& state, util::Rng& rng,
                                Sector sector, Bytes bytes);

// ---------------------------------------------------------------------------
// SSD mechanics
// ---------------------------------------------------------------------------

/// Channels a request stripes across (SsdModel::channels_for).
std::size_t ssd_channels_for(const SsdParams& params, Bytes bytes);

/// Plan one request and advance the mech state, with the exact computation
/// order of SsdModel::start (no RNG in the SSD service path).
SsdServicePlan ssd_plan_service(const SsdParams& params, SsdMechState& state,
                                Sector sector, Bytes bytes, OpType op);

}  // namespace tracer::storage
