#include "sim/arrival_process.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tracer::sim {
namespace {

template <typename Arrivals>
double mean_gap(Arrivals& process, util::Rng& rng, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += process.next_gap(rng);
  return sum / n;
}

TEST(ParetoArrivals, MeanMatchesRate) {
  util::Rng rng(4);
  ParetoArrivals arrivals(20.0, 2.5);
  EXPECT_NEAR(mean_gap(arrivals, rng, 500000), 1.0 / 20.0, 2e-3);
}

TEST(ParetoArrivals, HeavierTailThanPoisson) {
  util::Rng rng(5);
  ParetoArrivals pareto(10.0, 1.5);
  util::Rng rng2(5);
  double pareto_max = 0.0;
  double poisson_max = 0.0;
  for (int i = 0; i < 100000; ++i) {
    pareto_max = std::max(pareto_max, pareto.next_gap(rng));
    // Poisson arrivals at the same rate: exponential gaps of mean 1/rate.
    poisson_max = std::max(poisson_max, rng2.exponential(0.1));
  }
  EXPECT_GT(pareto_max, poisson_max);
}

TEST(ParetoArrivals, RejectsShallowAlpha) {
  EXPECT_THROW(ParetoArrivals(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(ParetoArrivals(1.0, 0.5), std::invalid_argument);
}

TEST(DiurnalArrivals, MeanRateNearBase) {
  util::Rng rng(6);
  DiurnalArrivals arrivals(100.0, 0.5, 10.0);
  // Over many periods the sine modulation averages out (approximately; the
  // process spends slightly more events in high-rate phases).
  const double mean = mean_gap(arrivals, rng, 300000);
  EXPECT_NEAR(mean, 0.01, 0.002);
}

TEST(DiurnalArrivals, ModulatesIntensityOverPhase) {
  util::Rng rng(7);
  const double period = 100.0;
  DiurnalArrivals arrivals(50.0, 0.8, period);
  // Count arrivals per half-period; highs and lows must differ markedly.
  std::vector<int> counts(20, 0);
  double t = 0.0;
  while (t < period * 10) {
    t += arrivals.next_gap(rng);
    const auto bucket =
        static_cast<std::size_t>(std::fmod(t, period) / period * 20.0);
    if (bucket < counts.size()) ++counts[bucket];
  }
  int lo = counts[0];
  int hi = counts[0];
  for (int c : counts) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GT(hi, lo * 2);
}

TEST(DiurnalArrivals, RejectsBadParameters) {
  EXPECT_THROW(DiurnalArrivals(0.0, 0.5, 10.0), std::invalid_argument);
  EXPECT_THROW(DiurnalArrivals(1.0, 1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(DiurnalArrivals(1.0, -0.1, 10.0), std::invalid_argument);
  EXPECT_THROW(DiurnalArrivals(1.0, 0.5, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace tracer::sim
