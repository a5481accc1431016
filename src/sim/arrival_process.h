// Stochastic inter-arrival processes for synthetic workload generation.
//
// The paper's related-work baselines (DRPM) drive arrays with Pareto and
// exponential arrivals; the IOmeter-style generator uses closed-loop
// saturation instead, but open-loop processes are needed for the web-server
// and cello synthesisers.
#pragma once

#include "util/rng.h"
#include "util/types.h"

namespace tracer::sim {

/// Heavy-tailed Pareto gaps with shape alpha (> 1 for finite mean) scaled to
/// the requested mean rate. Produces the bursty crests/troughs the paper
/// warns random filtering would distort. next_gap() returns successive
/// inter-arrival gaps (seconds).
class ParetoArrivals {
 public:
  ParetoArrivals(double rate_per_sec, double alpha);
  Seconds next_gap(util::Rng& rng);

 private:
  double alpha_;
  double xm_;  // minimum gap chosen so that E[gap] = 1/rate
};

/// Poisson arrivals whose rate is modulated by a periodic diurnal profile —
/// used by the web-server trace synthesiser (a week of traffic with
/// day/night swings, Fig 12's visible workload shape).
class DiurnalArrivals {
 public:
  /// base_rate: mean rate; swing in [0,1): amplitude of the daily sine;
  /// period: seconds per day (configurable so tests can compress time).
  DiurnalArrivals(double base_rate, double swing, Seconds period);
  Seconds next_gap(util::Rng& rng);

 private:
  double base_rate_;
  double swing_;
  Seconds period_;
  Seconds clock_ = 0.0;
};

}  // namespace tracer::sim
