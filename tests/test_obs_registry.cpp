// obs::Registry / Counter / Gauge / LogScale / Snapshot unit tests.
#include "obs/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <thread>
#include <vector>

namespace tracer::obs {
namespace {

TEST(Counter, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndUpdateMax) {
  Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.update_max(2.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.update_max(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST(Registry, HandleIsStableAndShared) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  // Distinct kinds may share a name without clashing.
  Gauge& g = reg.gauge("x.count");
  g.set(1.0);
  EXPECT_EQ(a.value(), 3u);
}

TEST(Registry, ConcurrentLookupAndBumpIsConsistent) {
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Every thread looks the instruments up itself — exercising the
      // registry lock — then hammers the shared atomics.
      Counter& c = reg.counter("conc.count");
      Gauge& g = reg.gauge("conc.max");
      for (int i = 0; i < kIters; ++i) {
        c.increment();
        g.update_max(static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.counter("conc.count").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(reg.gauge("conc.max").value(), kIters - 1);
}

TEST(LogScale, BinEdgesAreGeometric) {
  const LogScale scale(0.01, 10000.0, 40);
  // 6 decades x 40 bins.
  EXPECT_EQ(scale.bin_count(), 240u);
  const double ratio = scale.bin_hi(0) / scale.bin_lo(0);
  for (std::size_t i = 1; i < scale.bin_count(); i += 37) {
    EXPECT_NEAR(scale.bin_hi(i) / scale.bin_lo(i), ratio, 1e-9);
  }
  EXPECT_NEAR(scale.bin_lo(0), 0.01, 1e-12);
  EXPECT_NEAR(scale.bin_hi(scale.bin_count() - 1), 10000.0, 1e-6);
}

TEST(LogScale, ClampsOutOfRangeIntoEdgeBins) {
  const LogScale scale(1.0, 100.0, 10);
  EXPECT_EQ(scale.index(0.5), 0u);   // below lo
  EXPECT_EQ(scale.index(-3.0), 0u);  // non-positive
  EXPECT_EQ(scale.index(1000.0), scale.bin_count() - 1);  // above hi
}

TEST(LogScale, PercentileTracksExactWithinOneBinRatio) {
  const LogScale scale(0.01, 10000.0, 40);
  std::vector<std::uint64_t> counts(scale.bin_count(), 0);
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(1.0, 1.2);
  std::vector<double> exact;
  exact.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double x = dist(rng);
    exact.push_back(x);
    ++counts[scale.index(x)];
  }
  std::sort(exact.begin(), exact.end());
  // One-bin relative resolution: 10^(1/40) ~= 1.059.
  const double tolerance = std::pow(10.0, 1.0 / 40.0);
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const double expected =
        exact[static_cast<std::size_t>(q * (exact.size() - 1))];
    const double got = scale.percentile(
        q, exact.size(), [&counts](std::size_t i) { return counts[i]; });
    EXPECT_LE(got / expected, tolerance * 1.02) << "q=" << q;
    EXPECT_GE(got / expected, 1.0 / (tolerance * 1.02)) << "q=" << q;
  }
}

TEST(LogScale, RejectsBadRange) {
  EXPECT_THROW(LogScale(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(LogScale(10.0, 10.0), std::invalid_argument);
  EXPECT_THROW(LogScale(10.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogScale(1.0, 10.0, 0), std::invalid_argument);
}

// ---- LogScale::index against the log10 formula it replaces -------------

/// floor((log10(x) - log10(lo)) * bins_per_decade) clamped into the bins,
/// with non-positive values and NaN in bin 0 and +inf in the last bin.
std::size_t log10_bin(double x, double lo, std::size_t bins_per_decade,
                      std::size_t bins) {
  if (!(x > lo)) return 0;
  if (std::isinf(x)) return bins - 1;
  const double pos = (std::log10(x) - std::log10(lo)) *
                     static_cast<double>(bins_per_decade);
  return std::min(static_cast<std::size_t>(pos), bins - 1);
}

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t to_bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct ScaleCase {
  double lo;
  double hi;
  std::size_t bins_per_decade;
  std::uint64_t random_samples;
};

/// The PerfMonitor and BinEdgesAreGeometric scales, an odd range, and one so
/// fine that a table cell spans several bins.
constexpr ScaleCase kScales[] = {
    {0.01, 10000.0, 40, 10000000},
    {1.0, 100.0, 10, 1000000},
    {0.1, 100.0, 40, 1000000},
    {3.7e-5, 7.7, 13, 1000000},
    {1.0, 10.0, 400, 1000000},
};

TEST(LogScale, IndexMatchesLog10FormulaOnRandomDoubles) {
  for (const ScaleCase& c : kScales) {
    const LogScale scale(c.lo, c.hi, c.bins_per_decade);
    // Uniform over bit patterns: every binade of [lo/100, hi*100] alike.
    const std::uint64_t first = to_bits(c.lo / 100.0);
    const std::uint64_t span = to_bits(c.hi * 100.0) - first + 1;
    std::mt19937_64 rng(c.bins_per_decade);
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < c.random_samples; ++i) {
      const double x = from_bits(first + rng() % span);
      if (scale.index(x) !=
          log10_bin(x, c.lo, c.bins_per_decade, scale.bin_count())) {
        if (++mismatches <= 5) ADD_FAILURE() << "x=" << x << " lo=" << c.lo;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "lo=" << c.lo << " hi=" << c.hi;
  }
}

TEST(LogScale, IndexMatchesLog10FormulaAroundEveryBinEdge) {
  constexpr std::uint64_t kUlps = 2000;
  for (const ScaleCase& c : kScales) {
    const LogScale scale(c.lo, c.hi, c.bins_per_decade);
    const std::size_t bins = scale.bin_count();
    std::uint64_t mismatches = 0;
    for (std::size_t i = 1; i < bins; ++i) {
      const std::uint64_t edge = to_bits(scale.bin_lo(i));
      // The window holds the formula's own edge: it starts below bin i
      // and ends in it.
      ASSERT_LT(log10_bin(from_bits(edge - kUlps), c.lo, c.bins_per_decade,
                          bins),
                i);
      ASSERT_GE(log10_bin(from_bits(edge + kUlps), c.lo, c.bins_per_decade,
                          bins),
                i);
      for (std::uint64_t b = edge - kUlps; b <= edge + kUlps; ++b) {
        const double x = from_bits(b);
        if (scale.index(x) != log10_bin(x, c.lo, c.bins_per_decade, bins)) {
          if (++mismatches <= 5) ADD_FAILURE() << "x=" << x << " bin " << i;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "lo=" << c.lo << " hi=" << c.hi;
  }
}

TEST(LogScale, IndexMatchesLog10FormulaOnSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const ScaleCase& c : kScales) {
    const LogScale scale(c.lo, c.hi, c.bins_per_decade);
    const std::size_t last = scale.bin_count() - 1;
    const double specials[] = {
        0.0, -0.0, -1.0, -kInf, std::numeric_limits<double>::denorm_min(),
        c.lo, std::nextafter(c.lo, kInf), std::nextafter(c.lo, 0.0),
        c.hi, std::nextafter(c.hi, kInf), std::nextafter(c.hi, 0.0),
        std::numeric_limits<double>::max(), kInf};
    for (double x : specials) {
      EXPECT_EQ(scale.index(x),
                log10_bin(x, c.lo, c.bins_per_decade, scale.bin_count()))
          << "x=" << x;
    }
    EXPECT_EQ(scale.index(std::numeric_limits<double>::quiet_NaN()), 0u);
    EXPECT_EQ(scale.index(-std::numeric_limits<double>::quiet_NaN()), 0u);
    EXPECT_EQ(scale.index(c.lo), 0u);
    EXPECT_EQ(scale.index(kInf), last);
    EXPECT_EQ(scale.index(c.hi), last);
  }
}

TEST(Snapshot, ReflectsValuesAndLookupByName) {
  Registry reg;
  reg.counter("a.count").add(5);
  reg.gauge("b.level").set(2.5);

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or("a.count"), 5u);
  EXPECT_EQ(snap.counter_or("missing", 77), 77u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("b.level"), 2.5);

  // Snapshot is a copy: later bumps don't mutate it.
  reg.counter("a.count").add(100);
  EXPECT_EQ(snap.counter_or("a.count"), 5u);
}

TEST(Snapshot, JsonAndCsvExportContainEveryInstrument) {
  Registry reg;
  reg.counter("n.sent").add(3);
  reg.gauge("n.depth").set(4.0);

  const Snapshot snap = reg.snapshot();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"n.sent\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"n.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);

  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("counter,n.sent,3"), std::string::npos) << csv;
  EXPECT_NE(csv.find("gauge,n.depth,"), std::string::npos);
}

TEST(Registry, ResetValuesZeroesButKeepsHandles) {
  Registry reg;
  Counter& c = reg.counter("r.count");
  c.add(9);
  reg.gauge("r.level").set(1.0);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  EXPECT_DOUBLE_EQ(reg.gauge("r.level").value(), 0.0);
}

TEST(ScopedTimer, AccumulatesDurationAndCalls) {
  Counter micros;
  Counter calls;
  for (int i = 0; i < 3; ++i) {
    ScopedTimer timer(micros, calls);
    // Busy-wait a hair so the duration is visibly non-negative; zero is
    // still legal on a coarse clock.
  }
  EXPECT_EQ(calls.value(), 3u);
  EXPECT_GE(micros.value(), 0u);
}

TEST(Registry, GlobalIsSameInstance) {
  EXPECT_EQ(&Registry::global(), &Registry::global());
  Counter& c = Registry::global().counter("test.obs.global_probe");
  c.increment();
  EXPECT_GE(Registry::global()
                .snapshot()
                .counter_or("test.obs.global_probe"),
            1u);
}

}  // namespace
}  // namespace tracer::obs
