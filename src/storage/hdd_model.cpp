#include "storage/hdd_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>


namespace tracer::storage {

HddModel::HddModel(sim::Simulator& sim, const HddParams& params,
                   std::uint64_t seed)
    : BlockDevice(sim),
      params_(params),
      rng_(seed),
      timeline_(params.idle_watts) {
  if (params_.cylinders == 0 || params_.capacity == 0) {
    throw std::invalid_argument("HddModel: capacity and cylinders must be > 0");
  }
  rotation_period_ = 60.0 / params_.rpm;
  sectors_per_cylinder_ = std::max<std::uint64_t>(
      1, params_.capacity / kSectorSize / params_.cylinders);
  // Coefficient chosen so a full-stroke seek costs full_stroke_seek.
  seek_coefficient_ =
      (params_.full_stroke_seek - params_.track_to_track_seek) /
      std::sqrt(static_cast<double>(params_.cylinders - 1));
}

void HddModel::submit(const IoRequest& request, CompletionCallback done) {
  if (request.bytes == 0) {
    throw std::invalid_argument("HddModel: zero-byte request");
  }
  queue_.push_back(PendingIo{request, done, sim_.now()});
  last_activity_ = sim_.now();
  if (power_state_ == PowerState::kStandby) {
    spin_up();  // I/O arrival wakes a spun-down drive
    return;
  }
  if (power_state_ == PowerState::kActive && !busy_) start_next();
}

bool HddModel::spin_down() {
  if (power_state_ != PowerState::kActive || busy_ || queued() != 0) {
    return false;
  }
  power_state_ = PowerState::kStandby;
  timeline_.set_base(sim_.now(), params_.standby_watts);
  return true;
}

void HddModel::spin_up() {
  if (power_state_ != PowerState::kStandby) return;
  power_state_ = PowerState::kSpinningUp;
  ++spin_ups_;
  const std::uint64_t epoch = ++spin_up_epoch_;
  const Seconds t0 = sim_.now();
  // The base must rise to idle_watts for the whole kSpinningUp window; the
  // surge pulse is *additive*, so leaving the base at standby_watts would
  // under-count every wake-up by (idle - standby) x spin_up_time joules.
  // Pinned by PowerPolicyTest.WakeCycleEnergyExactJoules.
  timeline_.set_base(t0, params_.idle_watts);
  timeline_.add_pulse(t0, t0 + params_.spin_up_time,
                      params_.spin_up_extra_watts);
  sim_.schedule_in(params_.spin_up_time, *this, epoch);
}

void HddModel::on_event(std::uint64_t arg) {
  if (arg == 0) {
    complete_in_service();
  } else {
    finish_spin_up(arg);
  }
}

void HddModel::finish_spin_up(std::uint64_t epoch) {
  if (epoch != spin_up_epoch_ || power_state_ != PowerState::kSpinningUp) {
    return;
  }
  power_state_ = PowerState::kActive;
  if (!busy_) start_next();
}

void HddModel::start_next() {
  if (queued() == 0 || power_state_ != PowerState::kActive) return;
  busy_ = true;

  in_service_ = queue_.take();

  const IoRequest& req = in_service_.request;
  const Seconds t0 = sim_.now();

  // Plan the service: command + seek + rotation + zoned transfer. The RNG
  // is drawn only for a non-sequential request, after the sequential test,
  // so a replay's doubles are reproducible bit for bit (the golden reports
  // in tests/test_golden_reports.cpp pin them).
  const Sector sector = req.sector;
  const std::uint64_t spc = sectors_per_cylinder_;
  const std::uint64_t start_quotient = sector / spc;
  const std::uint64_t target_cyl =
      std::min<std::uint64_t>(start_quotient, params_.cylinders - 1);
  const bool sequential =
      have_position_ && sector == next_sequential_sector_;
  Seconds seek = 0.0;
  if (!sequential) {
    const std::uint64_t distance = head_cylinder_ > target_cyl
                                       ? head_cylinder_ - target_cyl
                                       : target_cyl - head_cylinder_;
    seek = distance == 0 ? params_.settle_time
                         : params_.track_to_track_seek +
                               seek_coefficient_ *
                                   std::sqrt(static_cast<double>(distance));
  }
  const Seconds rotation =
      sequential ? 0.0 : rng_.uniform(0.0, rotation_period_);
  // Media rate falls linearly from the outer to the inner cylinder.
  const double frac = static_cast<double>(target_cyl) /
                      static_cast<double>(params_.cylinders - 1);
  const double media_mbps =
      params_.outer_rate_mbps +
      (params_.inner_rate_mbps - params_.outer_rate_mbps) * frac;
  const Seconds transfer =
      static_cast<double>(req.bytes) / (media_mbps * 1.0e6);
  const Seconds service =
      params_.command_overhead + seek + rotation + transfer;

  // The head ends on the last sector's cylinder, which usually shares the
  // first one's: derive that from the first sector's remainder, and divide
  // only when the request crosses into another cylinder (or its end
  // wrapped past 2^64).
  const Sector end_sector =
      sector + (req.bytes + kSectorSize - 1) / kSectorSize;
  const Sector last = end_sector ? end_sector - 1 : sector;
  const std::uint64_t room = spc - (sector - start_quotient * spc);
  const std::uint64_t last_quotient =
      last >= sector && last - sector < room ? start_quotient : last / spc;
  head_cylinder_ = std::min<std::uint64_t>(last_quotient,
                                           params_.cylinders - 1);
  next_sequential_sector_ = end_sector;
  have_position_ = true;

  // Power: voice coil during the seek, head/channel during the transfer.
  const Seconds seek_begin = t0 + params_.command_overhead;
  if (seek > 0.0) {
    timeline_.add_pulse(seek_begin, seek_begin + seek,
                        params_.seek_extra_watts);
  }
  const Seconds transfer_begin = seek_begin + seek + rotation;
  Watts transfer_extra = params_.transfer_extra_watts;
  if (req.op == OpType::kWrite) transfer_extra += params_.write_extra_watts;
  timeline_.add_pulse(transfer_begin, transfer_begin + transfer,
                      transfer_extra);

  if (sequential) ++sequential_hits_;
  busy_time_ += service;

  sim_.schedule_at(t0 + service, *this, 0);
}

void HddModel::complete_in_service() {
  // The event fires at its own time, so now() is the finish time.
  const Seconds finish = sim_.now();
  ++completed_;
  busy_ = false;
  last_activity_ = finish;
  IoCompletion completion{in_service_.request.id, in_service_.submit_time,
                          finish, in_service_.request.bytes,
                          in_service_.request.op};
  const CompletionCallback done = in_service_.done;
  // Start the next request before invoking the callback so a callback
  // that submits more I/O sees a live queue, not an idle disk.
  start_next();
  done(completion);
}

}  // namespace tracer::storage
