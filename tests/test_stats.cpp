#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace tracer::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.sum(), 0.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32 -> 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(1);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(3.0, 1.5);
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a;
  RunningStats b;
  b.add(5.0);
  a.merge(b);  // empty.merge(nonempty)
  EXPECT_EQ(a.count(), 1u);
  RunningStats c;
  a.merge(c);  // nonempty.merge(empty)
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

TEST(TimeBinnedSeries, BinsByTime) {
  TimeBinnedSeries series(1.0);
  series.add(0.2, 1.0);
  series.add(0.9, 2.0);
  series.add(1.1, 4.0);
  series.add(5.5, 8.0);
  ASSERT_EQ(series.size(), 6u);
  EXPECT_DOUBLE_EQ(series.bin_sum(0), 3.0);
  EXPECT_DOUBLE_EQ(series.bin_sum(1), 4.0);
  EXPECT_DOUBLE_EQ(series.bin_sum(5), 8.0);
  EXPECT_DOUBLE_EQ(series.total(), 15.0);
}

TEST(TimeBinnedSeries, RatesDivideByWidth) {
  TimeBinnedSeries series(0.5);
  series.add(0.1, 10.0);
  EXPECT_DOUBLE_EQ(series.bin_rate(0), 20.0);
}

TEST(TimeBinnedSeries, MeanRateOverWindow) {
  TimeBinnedSeries series(1.0);
  series.add(0.5, 2.0);
  series.add(1.5, 4.0);
  series.add(2.5, 6.0);
  EXPECT_DOUBLE_EQ(series.mean_rate(0, 3), 4.0);
  EXPECT_DOUBLE_EQ(series.mean_rate(1, 3), 5.0);
  EXPECT_DOUBLE_EQ(series.mean_rate(3, 3), 0.0);
}

TEST(TimeBinnedSeries, NegativeTimeClampsToFirstBin) {
  TimeBinnedSeries series(1.0);
  series.add(-2.0, 5.0);
  EXPECT_DOUBLE_EQ(series.bin_sum(0), 5.0);
}

TEST(TimeBinnedSeries, RejectsNonPositiveWidth) {
  EXPECT_THROW(TimeBinnedSeries(0.0), std::invalid_argument);
}

TEST(PearsonCorrelation, PerfectAndInverse) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  std::vector<double> b = {2, 4, 6, 8, 10};
  std::vector<double> c = {5, 4, 3, 2, 1};
  EXPECT_NEAR(pearson_correlation(a, b), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(a, c), -1.0, 1e-12);
}

TEST(PearsonCorrelation, ConstantSeriesIsZero) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> flat = {4, 4, 4};
  EXPECT_EQ(pearson_correlation(a, flat), 0.0);
}

TEST(PearsonCorrelation, RejectsMismatchedSizes) {
  std::vector<double> a = {1, 2, 3};
  std::vector<double> b = {1, 2};
  EXPECT_THROW(pearson_correlation(a, b), std::invalid_argument);
  EXPECT_THROW(pearson_correlation({1.0}, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace tracer::util
