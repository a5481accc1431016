// Mechanical hard-disk model calibrated to the testbed's Seagate Barracuda
// 7200.12 500 GB drives (Table II).
//
// Service model: FIFO single-actuator service, so requests finish in the
// order they arrive and a replay keeps the trace's ordering. A request pays
//   seek(cylinder distance) + rotational latency + zoned media transfer,
// with sequential hits (next sector after the previous request) streaming
// at media rate with neither seek nor rotation. Power: constant spindle/
// electronics base, an extra voice-coil pulse during seeks (the §VI-D
// mechanism behind the random-ratio results), and an extra during transfer.
#pragma once

#include <string>

#include "power/power_timeline.h"
#include "storage/block_device.h"
#include "storage/io_queue.h"
#include "util/rng.h"

namespace tracer::storage {

struct HddParams {
  std::string name = "seagate-7200.12";
  Bytes capacity = 500ULL * 1000 * 1000 * 1000;  // marketing GB, like the SKU
  double rpm = 7200.0;
  std::uint64_t cylinders = 100000;
  Seconds track_to_track_seek = 1.0e-3;
  Seconds full_stroke_seek = 15.0e-3;
  Seconds settle_time = 0.4e-3;        ///< same-cylinder non-sequential hit
  Seconds command_overhead = 0.10e-3;  ///< per-request controller time
  double outer_rate_mbps = 125.0;      ///< media rate at cylinder 0 (MB/s)
  double inner_rate_mbps = 60.0;       ///< media rate at the last cylinder
  Watts idle_watts = 8.0;              ///< spindle + electronics
  Watts seek_extra_watts = 4.5;        ///< voice coil during seeks
  Watts transfer_extra_watts = 2.2;    ///< head/channel during transfer
  Watts write_extra_watts = 0.6;       ///< added write current
  // Power-state support for energy-conservation techniques (MAID/PDC-style
  // spin-down, the §II comparison targets TRACER exists to evaluate).
  Watts standby_watts = 1.2;           ///< spun-down electronics only
  Seconds spin_up_time = 6.0;          ///< standby -> active latency
  Watts spin_up_extra_watts = 16.0;    ///< motor surge above idle while
                                       ///< spinning up
};

class HddModel final : public BlockDevice, private sim::EventTarget {
 public:
  HddModel(sim::Simulator& sim, const HddParams& params, std::uint64_t seed);

  // BlockDevice
  Bytes capacity() const override { return params_.capacity; }
  void submit(const IoRequest& request, CompletionCallback done) override;
  std::size_t outstanding() const override {
    return queued() + (busy_ ? 1 : 0);
  }
  /// One in-service completion plus a possible spin-up timer.
  std::size_t max_concurrent_events() const override { return 2; }

  // PowerSource
  std::string name() const override { return params_.name; }
  Watts power_at(Seconds t) const override { return timeline_.power_at(t); }
  Joules energy_until(Seconds t) override { return timeline_.energy_until(t); }

  const HddParams& params() const { return params_; }

  /// Lifetime service statistics (used by tests and the trace collector).
  std::uint64_t completed_requests() const { return completed_; }
  std::uint64_t sequential_hits() const { return sequential_hits_; }
  Seconds busy_time() const { return busy_time_; }
  std::uint64_t spin_ups() const { return spin_ups_; }
  /// Time of the most recent submit or completion (idle-timeout policies).
  Seconds last_activity() const { return last_activity_; }

  // ---- Power management (spin-down energy-conservation support) ----

  enum class PowerState { kActive, kStandby, kSpinningUp };
  PowerState power_state() const { return power_state_; }

  /// Spin the platters down. Ignored while requests are queued or in
  /// service (a real drive rejects STANDBY IMMEDIATE mid-transfer).
  /// Returns true when the state changed.
  bool spin_down();

  /// Begin spinning up now (also triggered implicitly by I/O arrival).
  void spin_up();

 private:
  /// Typed event: 0 completes the request in service; any other value is
  /// the spin-up epoch that scheduled it (stale epochs are ignored).
  void on_event(std::uint64_t arg) override;
  void finish_spin_up(std::uint64_t epoch);
  void complete_in_service();

  void start_next();
  std::size_t queued() const { return queue_.size(); }

  HddParams params_;
  util::Rng rng_;
  power::PowerTimeline timeline_;
  IoQueue queue_;         ///< waiting requests, arrival order
  PendingIo in_service_;  ///< valid while busy_; its completion reads it
  bool busy_ = false;
  // Geometry, derived once from params_ by the constructor.
  Seconds rotation_period_ = 0.0;
  std::uint64_t sectors_per_cylinder_ = 1;
  double seek_coefficient_ = 0.0;  ///< seek(d) = t2t + coefficient * sqrt(d)
  // Head and sequential-detection state; advances in service order.
  std::uint64_t head_cylinder_ = 0;
  Sector next_sequential_sector_ = 0;
  bool have_position_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t sequential_hits_ = 0;
  Seconds busy_time_ = 0.0;
  Seconds last_activity_ = 0.0;
  PowerState power_state_ = PowerState::kActive;
  std::uint64_t spin_ups_ = 0;
  std::uint64_t spin_up_epoch_ = 0;  ///< invalidates stale spin-up events
};

}  // namespace tracer::storage
