// IOmeter-style synthetic peak-workload generator (§III-A2, §V-C1).
//
// Drives the target device with a closed loop of `queue_depth` outstanding
// requests — the saturation behaviour IOmeter produces — while the trace
// collector records every submission. The resulting trace's inter-arrival
// times reflect the device's peak service capability, which is exactly the
// property the proportional filter relies on: replaying k/10 of the bunches
// yields k/10 of peak throughput.
#pragma once

#include "sim/simulator.h"
#include "storage/block_device.h"
#include "trace/collector.h"
#include "util/rng.h"
#include "workload/workload_mode.h"

namespace tracer::workload {

struct SyntheticParams {
  Bytes request_size = 4 * kKiB;
  double read_ratio = 0.5;
  double random_ratio = 0.5;
  std::size_t queue_depth = 8;  ///< outstanding I/Os (IOmeter workers)
  Seconds duration = 10.0;      ///< collection window (paper used ~2 min)
  Bytes working_set = 0;        ///< 0 = entire device
  std::uint64_t seed = 1;

  static SyntheticParams from_mode(const WorkloadMode& mode,
                                   Seconds duration_s, std::uint64_t seed_v);
};

struct GeneratorResult {
  trace::Trace trace;       ///< the collected peak trace
  double achieved_iops = 0.0;
  double achieved_mbps = 0.0;
  std::uint64_t requests = 0;
};

class SyntheticGenerator final : private storage::IoSink {
 public:
  SyntheticGenerator(sim::Simulator& sim, storage::BlockDevice& target,
                     const SyntheticParams& params);

  /// Run the closed loop for params.duration of simulated time, drain
  /// outstanding requests, and return the collected trace. The simulator
  /// must be dedicated to this run.
  GeneratorResult run();

 private:
  storage::IoRequest next_request();
  void issue_one();
  /// Routed completion of one closed-loop request (tag unused).
  void on_complete(std::uint64_t tag,
                   const storage::IoCompletion& completion) override;

  sim::Simulator& sim_;
  storage::BlockDevice& target_;
  SyntheticParams params_;
  util::Rng rng_;
  trace::TraceCollector collector_;
  Bytes span_ = 0;
  Sector cursor_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t completed_ = 0;
  Bytes completed_bytes_ = 0;
  Seconds last_finish_ = 0.0;
  bool stopping_ = false;
};

}  // namespace tracer::workload
