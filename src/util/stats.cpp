#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tracer::util {

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

TimeBinnedSeries::TimeBinnedSeries(double bin_width) : bin_width_(bin_width) {
  if (!(bin_width > 0.0)) {
    throw std::invalid_argument("TimeBinnedSeries: bin_width must be > 0");
  }
}

double TimeBinnedSeries::total() const {
  double s = 0.0;
  for (double v : sums_) s += v;
  return s;
}

double TimeBinnedSeries::mean_rate(std::size_t first, std::size_t last) const {
  last = std::min(last, sums_.size());
  if (first >= last) return 0.0;
  double s = 0.0;
  for (std::size_t i = first; i < last; ++i) s += sums_[i];
  return s / (static_cast<double>(last - first) * bin_width_);
}

double pearson_correlation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) {
    throw std::invalid_argument(
        "pearson_correlation: series must have equal size >= 2");
  }
  const auto n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 || vb == 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace tracer::util
