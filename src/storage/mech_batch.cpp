#include "storage/mech_batch.h"

#include <algorithm>
#include <cmath>

namespace tracer::storage {

HddMechGeometry derive_hdd_geometry(const HddParams& params) {
  HddMechGeometry geom;
  geom.rotation_period = 60.0 / params.rpm;
  geom.sectors_per_cylinder = std::max<std::uint64_t>(
      1, params.capacity / kSectorSize / params.cylinders);
  // seek(d) = t2t + coeff * sqrt(d); coeff chosen so a full-stroke seek
  // costs full_stroke_seek.
  geom.seek_coefficient =
      (params.full_stroke_seek - params.track_to_track_seek) /
      std::sqrt(static_cast<double>(params.cylinders - 1));
  return geom;
}

std::uint64_t hdd_cylinder_of(const HddParams& params,
                              const HddMechGeometry& geom, Sector sector) {
  return std::min<std::uint64_t>(sector / geom.sectors_per_cylinder,
                                 params.cylinders - 1);
}

double hdd_media_rate_bytes_per_sec(const HddParams& params,
                                    std::uint64_t cyl) {
  const double frac =
      static_cast<double>(cyl) / static_cast<double>(params.cylinders - 1);
  const double mbps =
      params.outer_rate_mbps +
      (params.inner_rate_mbps - params.outer_rate_mbps) * frac;
  return mbps * 1.0e6;
}

Seconds hdd_seek_time(const HddParams& params, const HddMechGeometry& geom,
                      std::uint64_t from_cyl, std::uint64_t to_cyl,
                      bool sequential) {
  if (sequential) return 0.0;
  const std::uint64_t distance =
      from_cyl > to_cyl ? from_cyl - to_cyl : to_cyl - from_cyl;
  if (distance == 0) return params.settle_time;
  return params.track_to_track_seek +
         geom.seek_coefficient * std::sqrt(static_cast<double>(distance));
}

HddServicePlan hdd_plan_service(const HddParams& params,
                                const HddMechGeometry& geom,
                                HddMechState& state, util::Rng& rng,
                                Sector sector, Bytes bytes) {
  HddServicePlan plan;
  const std::uint64_t start_quotient = sector / geom.sectors_per_cylinder;
  const std::uint64_t target_cyl =
      std::min<std::uint64_t>(start_quotient, params.cylinders - 1);
  plan.sequential =
      state.have_position && sector == state.next_sequential_sector;
  plan.seek = hdd_seek_time(params, geom, state.head_cylinder, target_cyl,
                            plan.sequential);
  plan.rotation =
      plan.sequential ? 0.0 : rng.uniform(0.0, geom.rotation_period);
  plan.transfer = static_cast<double>(bytes) /
                  hdd_media_rate_bytes_per_sec(params, target_cyl);
  plan.service =
      params.command_overhead + plan.seek + plan.rotation + plan.transfer;

  const Sector end_sector = sector + (bytes + kSectorSize - 1) / kSectorSize;
  // The last sector usually shares the first one's cylinder: derive that
  // from the first sector's remainder, and divide only when the request
  // crosses into another cylinder (or its end wrapped past 2^64).
  const Sector last = end_sector ? end_sector - 1 : sector;
  const std::uint64_t spc = geom.sectors_per_cylinder;
  const std::uint64_t room = spc - (sector - start_quotient * spc);
  const std::uint64_t last_quotient =
      last >= sector && last - sector < room ? start_quotient : last / spc;
  state.head_cylinder =
      std::min<std::uint64_t>(last_quotient, params.cylinders - 1);
  state.next_sequential_sector = end_sector;
  state.have_position = true;
  return plan;
}

std::size_t ssd_channels_for(const SsdParams& params, Bytes bytes) {
  const Bytes stripes =
      (bytes + params.internal_stripe - 1) / params.internal_stripe;
  return static_cast<std::size_t>(std::min<Bytes>(stripes, params.channels));
}

SsdServicePlan ssd_plan_service(const SsdParams& params, SsdMechState& state,
                                Sector sector, Bytes bytes, OpType op) {
  SsdServicePlan plan;
  const std::size_t used_channels = ssd_channels_for(params, bytes);
  plan.used_channels = static_cast<std::uint32_t>(used_channels);

  plan.sequential =
      state.have_position && sector == state.next_sequential_sector;
  state.next_sequential_sector =
      sector + (bytes + kSectorSize - 1) / kSectorSize;
  state.have_position = true;

  const bool is_write = op == OpType::kWrite;
  // The device's aggregate bandwidth is split evenly across channels; the
  // request moves bytes/used_channels per channel in parallel.
  const double device_rate =
      (is_write ? params.write_rate_mbps : params.read_rate_mbps) * 1.0e6;
  const double per_channel_rate =
      device_rate / static_cast<double>(params.channels);
  double transfer = static_cast<double>(bytes) /
                    static_cast<double>(used_channels) / per_channel_rate;
  if (!plan.sequential) {
    transfer *= is_write ? params.random_write_amplification
                         : params.random_read_penalty;
  }
  plan.transfer = transfer;
  plan.service = params.command_overhead + transfer;
  return plan;
}

}  // namespace tracer::storage
