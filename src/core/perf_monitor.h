// Performance monitor: aggregates I/O completions into per-sampling-cycle
// IOPS/MBPS series and response-time statistics — the performance half of
// each database record (§III-A2: "monitors and tracks performance
// information like I/O throughput (measured in MBPS and IOPS) and average
// response time").
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/registry.h"
#include "storage/io_request.h"
#include "util/stats.h"

namespace tracer::core {

struct PerfReport {
  std::uint64_t completions = 0;
  Bytes bytes = 0;
  Seconds duration = 0.0;  ///< measurement window used for the rates

  double iops = 0.0;
  double mbps = 0.0;  ///< decimal MB/s, matching the paper's MBPS
  double avg_response_ms = 0.0;
  double p95_response_ms = 0.0;
  double max_response_ms = 0.0;

  /// Per-cycle rates (the GUI's real-time display; Fig 12's series).
  std::vector<double> iops_series;
  std::vector<double> mbps_series;
};

class PerfMonitor {
 public:
  explicit PerfMonitor(Seconds sampling_cycle = 1.0);

  /// Record one completion. Inline: the replay engine calls this once per
  /// measured package. The monitor is single-threaded per replay, so its
  /// latency bins are plain counts.
  void on_complete(const storage::IoCompletion& completion) {
    ++completions_;
    bytes_ += completion.bytes;
    last_finish_ = std::max(last_finish_, completion.finish_time);
    ops_.add(completion.finish_time, 1.0);
    bytes_series_.add(completion.finish_time,
                      static_cast<double>(completion.bytes));
    const double latency_ms = completion.latency() * 1e3;
    latency_.add(latency_ms);
    ++latency_bins_[latency_scale_->index(latency_ms)];
  }

  std::uint64_t completions() const { return completions_; }
  Bytes bytes() const { return bytes_; }

  /// Build the report. `duration`: measurement window; 0 uses the time of
  /// the last completion.
  PerfReport report(Seconds duration = 0.0) const;

  void reset();

 private:
  Seconds cycle_;
  util::TimeBinnedSeries ops_;
  util::TimeBinnedSeries bytes_series_;
  util::RunningStats latency_;
  const obs::LogScale* latency_scale_;  ///< one per process (its table)
  std::vector<std::uint64_t> latency_bins_;  ///< counts per latency_scale_ bin
  std::uint64_t completions_ = 0;
  Bytes bytes_ = 0;
  Seconds last_finish_ = 0.0;
};

}  // namespace tracer::core
