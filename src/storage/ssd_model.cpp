#include "storage/ssd_model.h"

#include <algorithm>
#include <stdexcept>


namespace tracer::storage {

SsdModel::SsdModel(sim::Simulator& sim, const SsdParams& params,
                   std::uint64_t seed)
    : BlockDevice(sim),
      params_(params),
      rng_(seed),
      timeline_(params.idle_watts) {
  if (params_.channels == 0 || params_.capacity == 0 ||
      params_.internal_stripe == 0) {
    throw std::invalid_argument(
        "SsdModel: capacity, channels and stripe must be > 0");
  }
  in_flight_.reserve(params_.channels);
}

std::size_t SsdModel::channels_for(Bytes bytes) const {
  const Bytes stripes =
      (bytes + params_.internal_stripe - 1) / params_.internal_stripe;
  return static_cast<std::size_t>(std::min<Bytes>(stripes, params_.channels));
}

void SsdModel::submit(const IoRequest& request, CompletionCallback done) {
  if (request.bytes == 0) {
    throw std::invalid_argument("SsdModel: zero-byte request");
  }
  queue_.push_back(PendingIo{request, done, sim_.now()});
  maybe_dispatch();
}

void SsdModel::maybe_dispatch() {
  // FIFO: head-of-line blocks until enough channels free. This keeps
  // completion order sane and models a single NCQ-style dispatch engine.
  while (!queue_.empty() &&
         channels_for(queue_.front().request.bytes) <=
             params_.channels - busy_channels_) {
    start(queue_.take());
  }
}

void SsdModel::start(PendingIo pending) {
  const IoRequest& req = pending.request;
  const std::size_t used_channels = channels_for(req.bytes);
  busy_channels_ += used_channels;
  ++active_requests_;

  const bool sequential =
      have_position_ && req.sector == next_sequential_sector_;
  next_sequential_sector_ =
      req.sector + (req.bytes + kSectorSize - 1) / kSectorSize;
  have_position_ = true;

  const bool is_write = req.op == OpType::kWrite;
  // The device's aggregate bandwidth is split evenly across channels; the
  // request moves bytes/used_channels per channel in parallel.
  const double device_rate =
      (is_write ? params_.write_rate_mbps : params_.read_rate_mbps) * 1.0e6;
  const double per_channel_rate =
      device_rate / static_cast<double>(params_.channels);
  double transfer = static_cast<double>(req.bytes) /
                    static_cast<double>(used_channels) / per_channel_rate;
  if (!sequential) {
    transfer *= is_write ? params_.random_write_amplification
                         : params_.random_read_penalty;
  }
  const Seconds service = params_.command_overhead + transfer;
  const Seconds t0 = sim_.now();
  // Active power scales with the number of busy channels.
  const Watts extra =
      (is_write ? params_.write_extra_watts : params_.read_extra_watts) *
      static_cast<double>(used_channels) /
      static_cast<double>(params_.channels);
  timeline_.add_pulse(t0 + params_.command_overhead, t0 + service, extra);

  sim_.schedule_at(t0 + service, *this,
                   in_flight_.put(InFlight{pending, used_channels}));
}

void SsdModel::on_event(std::uint64_t slot) {
  InFlight done = in_flight_.take(static_cast<std::uint32_t>(slot));
  ++completed_;
  busy_channels_ -= done.channels;
  --active_requests_;
  // The event fires at its own time, so now() is the finish time.
  IoCompletion completion{done.io.request.id, done.io.submit_time, sim_.now(),
                          done.io.request.bytes, done.io.request.op};
  maybe_dispatch();
  done.io.done(completion);
}

}  // namespace tracer::storage
