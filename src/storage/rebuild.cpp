#include "storage/rebuild.h"

#include <algorithm>
#include <stdexcept>

namespace tracer::storage {

RebuildProcess::RebuildProcess(sim::Simulator& sim, RaidController& controller,
                               const RebuildParams& params,
                               std::function<void()> on_complete)
    : sim_(sim),
      controller_(controller),
      params_(params),
      on_complete_(std::move(on_complete)) {
  if (!controller_.degraded()) {
    throw std::logic_error("RebuildProcess: controller is not degraded");
  }
  if (params_.chunk == 0 || params_.chunk % controller_.geometry().stripe_unit
      != 0) {
    throw std::invalid_argument(
        "RebuildProcess: chunk must be a positive stripe-unit multiple");
  }
  if (!(params_.throttle_mbps > 0.0)) {
    throw std::invalid_argument("RebuildProcess: throttle must be > 0");
  }
  target_disk_ = static_cast<std::size_t>(controller_.failed_disk());
  const auto& geometry = controller_.geometry();
  total_ = geometry.rows() * geometry.stripe_unit;
  if (params_.limit_bytes > 0) {
    total_ = std::min(total_, params_.limit_bytes);
  }
}

double RebuildProcess::progress() const {
  return total_ ? static_cast<double>(rebuilt_) / static_cast<double>(total_)
                : 1.0;
}

void RebuildProcess::start() {
  if (running_ || complete_) {
    throw std::logic_error("RebuildProcess: already started");
  }
  running_ = true;
  started_at_ = sim_.now();
  rebuild_next_chunk();
}

void RebuildProcess::rebuild_next_chunk() {
  if (cursor_ >= total_) {
    running_ = false;
    complete_ = true;
    finished_at_ = sim_.now();
    controller_.restore_disk(target_disk_);
    if (on_complete_) on_complete_();
    return;
  }

  chunk_bytes_ = std::min<Bytes>(params_.chunk, total_ - cursor_);
  chunk_sector_ = cursor_ / kSectorSize;
  chunk_began_ = sim_.now();

  // Phase 1: read this disk-local range from every surviving member (the
  // row-units of a range are at identical local offsets on all members).
  const std::size_t members = controller_.member_count();
  reads_left_ = members - 1;
  for (std::size_t d = 0; d < members; ++d) {
    if (d == target_disk_) continue;
    IoRequest read_req{0, chunk_sector_, chunk_bytes_, OpType::kRead};
    controller_.member(d).submit(read_req,
                                 CompletionCallback(*this, kChunkRead));
  }
}

void RebuildProcess::on_complete(std::uint64_t tag, const IoCompletion&) {
  if (tag == kChunkRead) {
    if (--reads_left_ > 0) return;
    // Phase 2: write the reconstructed range to the replacement.
    IoRequest write_req{0, chunk_sector_, chunk_bytes_, OpType::kWrite};
    controller_.member(target_disk_)
        .submit(write_req, CompletionCallback(*this, kChunkWrite));
    return;
  }
  rebuilt_ += chunk_bytes_;
  cursor_ += chunk_bytes_;
  // Throttle: the next chunk may start no earlier than the pace set by
  // throttle_mbps, measured from this chunk's start.
  const Seconds pace =
      static_cast<double>(chunk_bytes_) / (params_.throttle_mbps * 1e6);
  const Seconds elapsed_chunk = sim_.now() - chunk_began_;
  const Seconds delay = std::max(0.0, pace - elapsed_chunk);
  sim_.schedule_in(delay, [this] { rebuild_next_chunk(); });
}

}  // namespace tracer::storage
