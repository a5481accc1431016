#include "storage/hdd_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "storage/mech_batch.h"

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
  geom_ = derive_hdd_geometry(params_);
}

std::uint64_t HddModel::cylinder_of(Sector sector) const {
  return hdd_cylinder_of(params_, geom_, sector);
}

void HddModel::submit(const IoRequest& request, CompletionCallback done) {
  if (request.bytes == 0) {
    throw std::invalid_argument("HddModel: zero-byte request");
  }
  enqueue(Pending{request, std::move(done), sim_.now()});
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
  sim_.schedule_in(params_.spin_up_time, [this, epoch] {
    if (epoch != spin_up_epoch_ ||
        power_state_ != PowerState::kSpinningUp) {
      return;
    }
    power_state_ = PowerState::kActive;
    if (!busy_) start_next();
  });
}

void HddModel::enqueue(Pending pending) {
  if (queue_count_ == queue_.size()) {
    // Full: lay the ring out again in arrival order at twice the size.
    std::vector<Pending> grown(std::max<std::size_t>(16, 2 * queue_.size()));
    for (std::size_t k = 0; k < queue_count_; ++k) {
      grown[k] = std::move(queued_at(k));
    }
    queue_.swap(grown);
    queue_head_ = 0;
  }
  queued_at(queue_count_++) = std::move(pending);
}

std::size_t HddModel::pick_next() const {
  if (params_.discipline == HddParams::Discipline::kFifo || queued() == 1) {
    return 0;
  }
  // LOOK: among queued requests, pick the one whose cylinder is closest to
  // the head in the current sweep direction; fall back to nearest overall.
  std::size_t best = 0;
  std::uint64_t best_distance = ~0ULL;
  for (std::size_t k = 0; k < queue_count_; ++k) {
    const std::uint64_t cyl = cylinder_of(queued_at(k).request.sector);
    const std::uint64_t distance = cyl > mech_.head_cylinder
                                       ? cyl - mech_.head_cylinder
                                       : mech_.head_cylinder - cyl;
    if (distance < best_distance) {
      best_distance = distance;
      best = k;
    }
  }
  return best;
}

HddModel::Pending HddModel::take(std::size_t offset) {
  Pending pending = std::move(queued_at(offset));
  // LOOK may serve from the middle: shift the requests ahead of it one slot
  // back, then drop the head slot.
  for (std::size_t k = offset; k > 0; --k) {
    queued_at(k) = std::move(queued_at(k - 1));
  }
  queue_head_ = (queue_head_ + 1) & (queue_.size() - 1);
  --queue_count_;
  return pending;
}

void HddModel::start_next() {
  if (queued() == 0 || power_state_ != PowerState::kActive) return;
  busy_ = true;

  in_service_ = take(pick_next());

  const IoRequest& req = in_service_.request;
  const Seconds t0 = sim_.now();
  const HddServicePlan plan =
      hdd_plan_service(params_, geom_, mech_, rng_, req.sector, req.bytes);

  // Power: voice coil during the seek, head/channel during the transfer.
  const Seconds seek_begin = t0 + params_.command_overhead;
  if (plan.seek > 0.0) {
    timeline_.add_pulse(seek_begin, seek_begin + plan.seek,
                        params_.seek_extra_watts);
  }
  const Seconds transfer_begin = seek_begin + plan.seek + plan.rotation;
  Watts transfer_extra = params_.transfer_extra_watts;
  if (req.op == OpType::kWrite) transfer_extra += params_.write_extra_watts;
  timeline_.add_pulse(transfer_begin, transfer_begin + plan.transfer,
                      transfer_extra);

  if (plan.sequential) ++sequential_hits_;
  busy_time_ += plan.service;

  const Seconds finish = t0 + plan.service;
  sim_.schedule_at(finish, [this, finish] {
    ++completed_;
    busy_ = false;
    last_activity_ = sim_.now();
    IoCompletion completion{in_service_.request.id, in_service_.submit_time,
                            finish, in_service_.request.bytes,
                            in_service_.request.op};
    CompletionCallback done = std::move(in_service_.done);
    // Start the next request before invoking the callback so a callback
    // that submits more I/O sees a live queue, not an idle disk.
    start_next();
    done(completion);
  });
}

}  // namespace tracer::storage
