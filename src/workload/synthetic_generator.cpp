#include "workload/synthetic_generator.h"

#include <algorithm>
#include <stdexcept>

namespace tracer::workload {

SyntheticParams SyntheticParams::from_mode(const WorkloadMode& mode,
                                           Seconds duration_s,
                                           std::uint64_t seed_v) {
  SyntheticParams params;
  params.request_size = mode.request_size;
  params.read_ratio = mode.read_ratio;
  params.random_ratio = mode.random_ratio;
  params.duration = duration_s;
  params.seed = seed_v;
  return params;
}

SyntheticGenerator::SyntheticGenerator(sim::Simulator& sim,
                                       storage::BlockDevice& target,
                                       const SyntheticParams& params)
    : sim_(sim),
      target_(target),
      params_(params),
      rng_(params.seed),
      collector_("synthetic") {
  if (params_.request_size == 0 || params_.queue_depth == 0 ||
      !(params_.duration > 0.0)) {
    throw std::invalid_argument("SyntheticGenerator: bad parameters");
  }
  span_ = params_.working_set ? std::min(params_.working_set,
                                         target_.capacity())
                              : target_.capacity();
  if (span_ < params_.request_size) {
    throw std::invalid_argument(
        "SyntheticGenerator: working set smaller than one request");
  }
  // Start the sequential stream somewhere aligned but non-zero so traces
  // from different seeds do not all hammer sector 0.
  const std::uint64_t slots = span_ / params_.request_size;
  cursor_ = rng_.below(slots) * (params_.request_size / kSectorSize);
}

storage::IoRequest SyntheticGenerator::next_request() {
  const Bytes size = params_.request_size;
  const Sector sectors_per_req = std::max<Sector>(1, size / kSectorSize);
  const std::uint64_t slots = span_ / size;

  if (rng_.chance(params_.random_ratio)) {
    cursor_ = rng_.below(slots) * sectors_per_req;
  } else if ((cursor_ + sectors_per_req) * kSectorSize + size > span_) {
    cursor_ = 0;  // sequential stream wraps at the end of the working set
  }

  storage::IoRequest request;
  request.id = next_id_++;
  request.sector = cursor_;
  request.bytes = size;
  request.op =
      rng_.chance(params_.read_ratio) ? OpType::kRead : OpType::kWrite;
  cursor_ += sectors_per_req;
  return request;
}

void SyntheticGenerator::issue_one() {
  const storage::IoRequest request = next_request();
  collector_.on_submit(sim_.now(), request);
  target_.submit(request, storage::CompletionCallback(*this, 0));
}

void SyntheticGenerator::on_complete(std::uint64_t,
                                     const storage::IoCompletion& completion) {
  ++completed_;
  completed_bytes_ += completion.bytes;
  last_finish_ = completion.finish_time;
  if (!stopping_ && sim_.now() < params_.duration) {
    issue_one();
  }
}

GeneratorResult SyntheticGenerator::run() {
  for (std::size_t i = 0; i < params_.queue_depth; ++i) issue_one();
  // Run past the collection window, then drain whatever is still in flight.
  sim_.run_until(params_.duration);
  stopping_ = true;
  sim_.run();

  GeneratorResult result;
  result.trace = collector_.finish();
  result.requests = completed_;
  const Seconds elapsed = std::max(last_finish_, params_.duration);
  result.achieved_iops = static_cast<double>(completed_) / elapsed;
  result.achieved_mbps =
      static_cast<double>(completed_bytes_) / elapsed / 1.0e6;
  return result;
}

}  // namespace tracer::workload
