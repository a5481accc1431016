// SLC solid-state disk model calibrated to the testbed's Memoright 32 GB
// SLC drives (Table II, §VI-G).
//
// Service model: `channels` independent flash channels share the device's
// aggregate bandwidth. A request stripes internally across
// ceil(bytes / internal_stripe) channels (capped at `channels`), so one
// large request reaches full device rate while small requests run
// concurrently at per-channel rate; total bandwidth is conserved either
// way. Non-sequential writes pay a write-amplification multiplier (FTL
// garbage-collection cost). No mechanical latency, so random access barely
// degrades service compared to an HDD — exactly the §VI-G contrast.
// Power: 3.5 W idle (stated in the paper), plus per-operation read/program
// pulses that stack across concurrently active channels.
#pragma once

#include <string>

#include "power/power_timeline.h"
#include "storage/block_device.h"
#include "storage/io_queue.h"
#include "util/rng.h"
#include "util/slot_array.h"

namespace tracer::storage {

struct SsdParams {
  std::string name = "memoright-slc-32g";
  Bytes capacity = 32ULL * 1000 * 1000 * 1000;
  std::size_t channels = 4;
  Bytes internal_stripe = 32 * kKiB;   ///< per-channel striping granule
  Seconds command_overhead = 60.0e-6;  ///< per-request controller time
  double read_rate_mbps = 120.0;       ///< per-device sequential read
  double write_rate_mbps = 130.0;      ///< SLC program is slightly faster
  double random_write_amplification = 2.0;  ///< FTL GC multiplier (2008-era
                                             ///< SLC without TRIM, cf. [19])
  double random_read_penalty = 1.10;   ///< mapping lookup overhead
  Watts idle_watts = 3.5;              ///< §VI-G: 3.5 W average idle
  Watts read_extra_watts = 1.3;        ///< active read above idle
  Watts write_extra_watts = 2.1;       ///< program current above idle
};

class SsdModel final : public BlockDevice, private sim::EventTarget {
 public:
  SsdModel(sim::Simulator& sim, const SsdParams& params, std::uint64_t seed);

  // BlockDevice
  Bytes capacity() const override { return params_.capacity; }
  void submit(const IoRequest& request, CompletionCallback done) override;
  std::size_t outstanding() const override {
    return queue_.size() + active_requests_;
  }
  /// Worst case one single-channel request in service per channel.
  std::size_t max_concurrent_events() const override {
    return params_.channels + 1;
  }

  // PowerSource
  std::string name() const override { return params_.name; }
  Watts power_at(Seconds t) const override { return timeline_.power_at(t); }
  Joules energy_until(Seconds t) override { return timeline_.energy_until(t); }

  const SsdParams& params() const { return params_; }
  std::uint64_t completed_requests() const { return completed_; }

 private:
  /// A request in service and the channels it holds.
  struct InFlight {
    PendingIo io;
    std::size_t channels = 0;
  };

  /// Typed event: the in-flight slot whose service finished.
  void on_event(std::uint64_t slot) override;
  void start(PendingIo pending);
  void maybe_dispatch();
  std::size_t channels_for(Bytes bytes) const;

  SsdParams params_;
  util::Rng rng_;
  power::PowerTimeline timeline_;
  IoQueue queue_;  ///< waiting requests, arrival order
  /// Requests in service, addressed by their completion event's slot. At
  /// most one per channel, so the constructor's reservation is final.
  util::SlotArray<InFlight> in_flight_;
  std::size_t busy_channels_ = 0;
  std::size_t active_requests_ = 0;
  // Sequential-detection state; advances in dispatch order (== FIFO
  // enqueue order, thanks to head-of-line blocking).
  Sector next_sequential_sector_ = 0;
  bool have_position_ = false;
  std::uint64_t completed_ = 0;
};

}  // namespace tracer::storage
