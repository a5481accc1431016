// Streaming statistics: Welford accumulators and time-binned series used by
// the performance monitor (per-sampling-cycle IOPS/MBPS aggregation,
// §III-A2 of the paper).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace tracer::util {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  // Inline: called once per I/O completion from the replay hot path.
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = x < min_ ? x : min_;
    max_ = x > max_ ? x : max_;
  }
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Accumulates (time, value) samples into fixed-duration bins — the
/// "sampling cycle" of the paper (default 1 s). Each bin sums its samples;
/// callers divide by the cycle length to get rates (IOPS, MBPS).
class TimeBinnedSeries {
 public:
  explicit TimeBinnedSeries(double bin_width = 1.0);

  // Inline: two of these per I/O completion on the replay hot path.
  void add(double t, double value) {
    if (t < 0.0) t = 0.0;
    const auto idx = static_cast<std::size_t>(t / bin_width_);
    if (idx >= sums_.size()) sums_.resize(idx + 1, 0.0);
    sums_[idx] += value;
  }

  double bin_width() const { return bin_width_; }
  std::size_t size() const { return sums_.size(); }
  bool empty() const { return sums_.empty(); }
  double bin_sum(std::size_t i) const { return sums_.at(i); }
  double bin_rate(std::size_t i) const { return sums_.at(i) / bin_width_; }
  double bin_time(std::size_t i) const {
    return (static_cast<double>(i) + 0.5) * bin_width_;
  }

  /// Sum across all bins.
  double total() const;

  /// Mean per-bin rate over bins [first, last) — used for steady-state
  /// throughput excluding warm-up/tail.
  double mean_rate(std::size_t first, std::size_t last) const;
  double mean_rate() const { return mean_rate(0, sums_.size()); }

  const std::vector<double>& sums() const { return sums_; }

 private:
  double bin_width_;
  std::vector<double> sums_;
};

/// Pearson correlation between two equal-length series; the paper's claim
/// that "power consumption is closely correlated with I/O throughput" is
/// checked with this in tests.
double pearson_correlation(const std::vector<double>& a,
                           const std::vector<double>& b);

}  // namespace tracer::util
