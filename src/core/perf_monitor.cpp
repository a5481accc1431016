#include "core/perf_monitor.h"

#include <algorithm>

namespace tracer::core {

namespace {
// Response-time histogram range: 10 us .. 10 s on a log scale, 40 bins per
// decade (240 bins, ~6% relative resolution everywhere). The old 2000-bin
// linear 5 ms grid put every sub-5 ms SSD latency in bin 0, making p95
// useless exactly where flash latencies live; log bins resolve 100 us and
// 5 s equally well. Latencies outside the range clamp into the edge bins.
constexpr double kHistLoMs = 0.01;
constexpr double kHistHiMs = 10000.0;
constexpr std::size_t kHistBinsPerDecade = 40;

/// Built once per process: a LogScale's bin table costs a bisection of
/// log10 calls per bin, and a campaign builds a monitor per test.
const obs::LogScale& latency_scale() {
  static const obs::LogScale scale(kHistLoMs, kHistHiMs, kHistBinsPerDecade);
  return scale;
}
}  // namespace

PerfMonitor::PerfMonitor(Seconds sampling_cycle)
    : cycle_(sampling_cycle),
      ops_(sampling_cycle),
      bytes_series_(sampling_cycle),
      latency_scale_(&latency_scale()),
      latency_bins_(latency_scale_->bin_count(), 0) {}

PerfReport PerfMonitor::report(Seconds duration) const {
  PerfReport out;
  out.completions = completions_;
  out.bytes = bytes_;
  out.duration = duration > 0.0 ? duration : last_finish_;
  if (out.duration > 0.0) {
    out.iops = static_cast<double>(completions_) / out.duration;
    out.mbps = static_cast<double>(bytes_) / out.duration / 1.0e6;
  }
  out.avg_response_ms = latency_.mean();
  out.p95_response_ms = latency_scale_->percentile(
      0.95, completions_, [this](std::size_t i) { return latency_bins_[i]; });
  out.max_response_ms = latency_.max();
  out.iops_series.reserve(ops_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    out.iops_series.push_back(ops_.bin_rate(i));
  }
  out.mbps_series.reserve(bytes_series_.size());
  for (std::size_t i = 0; i < bytes_series_.size(); ++i) {
    out.mbps_series.push_back(bytes_series_.bin_rate(i) / 1.0e6);
  }
  return out;
}

void PerfMonitor::reset() {
  ops_ = util::TimeBinnedSeries(cycle_);
  bytes_series_ = util::TimeBinnedSeries(cycle_);
  latency_.reset();
  std::fill(latency_bins_.begin(), latency_bins_.end(), 0);
  completions_ = 0;
  bytes_ = 0;
  last_finish_ = 0.0;
}

}  // namespace tracer::core
