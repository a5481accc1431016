#include "sim/arrival_process.h"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace tracer::sim {

namespace {
void require_positive_rate(double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("arrivals: rate must be > 0");
  }
}
}  // namespace

ParetoArrivals::ParetoArrivals(double rate_per_sec, double alpha)
    : alpha_(alpha) {
  require_positive_rate(rate_per_sec);
  if (!(alpha > 1.0)) {
    throw std::invalid_argument("ParetoArrivals: alpha must be > 1");
  }
  // E[gap] = alpha*xm/(alpha-1) = 1/rate  =>  xm = (alpha-1)/(alpha*rate).
  xm_ = (alpha_ - 1.0) / (alpha_ * rate_per_sec);
}

Seconds ParetoArrivals::next_gap(util::Rng& rng) {
  return rng.pareto(alpha_, xm_);
}

DiurnalArrivals::DiurnalArrivals(double base_rate, double swing,
                                 Seconds period)
    : base_rate_(base_rate), swing_(swing), period_(period) {
  require_positive_rate(base_rate);
  if (swing < 0.0 || swing >= 1.0) {
    throw std::invalid_argument("DiurnalArrivals: swing must be in [0,1)");
  }
  if (!(period > 0.0)) {
    throw std::invalid_argument("DiurnalArrivals: period must be > 0");
  }
}

Seconds DiurnalArrivals::next_gap(util::Rng& rng) {
  const double phase = 2.0 * std::numbers::pi * (clock_ / period_);
  const double rate = base_rate_ * (1.0 + swing_ * std::sin(phase));
  const Seconds gap = rng.exponential(1.0 / rate);
  clock_ += gap;
  return gap;
}

}  // namespace tracer::sim
