// POD mechanics types shared by the disk models and the planners in
// mech_batch.h. Split out so hdd_model.h/ssd_model.h can embed them as
// members while mech_batch.h (which needs the full param structs) sits
// above both headers.
#pragma once

#include <cstdint>

#include "util/types.h"

namespace tracer::storage {

/// Constants derived once from HddParams (HddModel's constructor math).
struct HddMechGeometry {
  Seconds rotation_period = 0.0;
  std::uint64_t sectors_per_cylinder = 1;
  double seek_coefficient = 0.0;
};

/// Head/sequential-detection state. Evolves in service order (== FIFO
/// enqueue order), one instance per disk.
struct HddMechState {
  std::uint64_t head_cylinder = 0;
  Sector next_sequential_sector = 0;
  bool have_position = false;
};

/// One HDD request's precomputed service components. `service` is the full
/// command+seek+rotation+transfer latency; the power-pulse windows are
/// derived from these at service-start time.
struct HddServicePlan {
  Seconds seek = 0.0;
  Seconds rotation = 0.0;
  Seconds transfer = 0.0;
  Seconds service = 0.0;
  bool sequential = false;
};

/// SSD sequential-detection state; evolves in dispatch order (== FIFO
/// enqueue order thanks to head-of-line blocking).
struct SsdMechState {
  Sector next_sequential_sector = 0;
  bool have_position = false;
};

struct SsdServicePlan {
  Seconds transfer = 0.0;
  Seconds service = 0.0;
  std::uint32_t used_channels = 0;
  bool sequential = false;
};

}  // namespace tracer::storage
