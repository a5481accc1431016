#include "power/power_analyzer.h"

#include <gtest/gtest.h>

#include "power/power_timeline.h"

namespace tracer::power {
namespace {

/// A power source backed by a timeline the test controls.
class FakeSource final : public PowerSource {
 public:
  explicit FakeSource(std::string label, Watts base = 0.0)
      : label_(std::move(label)), timeline_(base) {}

  PowerTimeline& timeline() { return timeline_; }

  std::string name() const override { return label_; }
  Watts power_at(Seconds t) const override { return timeline_.power_at(t); }
  Joules energy_until(Seconds t) override { return timeline_.energy_until(t); }

 private:
  std::string label_;
  PowerTimeline timeline_;
};

HallSensorParams perfect_sensor() {
  HallSensorParams params;
  params.noise_relative = 0.0;
  params.gain_sigma = 0.0;
  params.offset_watts = 0.0;
  params.quantum_watts = 0.0;
  params.voltage_ripple = 0.0;
  return params;
}

TEST(PowerAnalyzer, RejectsBadCycle) {
  EXPECT_THROW(PowerAnalyzer(0.0), std::invalid_argument);
}

TEST(PowerAnalyzer, MeasuresConstantSourceExactly) {
  FakeSource source("const", 42.0);
  PowerAnalyzer analyzer(1.0, perfect_sensor());
  analyzer.add_channel(source);
  analyzer.start(0.0);
  for (int t = 1; t <= 10; ++t) analyzer.sample_at(t);
  const ChannelReport& report = analyzer.report(0);
  EXPECT_EQ(report.samples.size(), 10u);
  EXPECT_DOUBLE_EQ(report.mean_watts(), 42.0);
  EXPECT_DOUBLE_EQ(report.true_joules, 420.0);
  EXPECT_DOUBLE_EQ(report.measured_joules(1.0), 420.0);
  EXPECT_EQ(report.name, "const");
}

TEST(PowerAnalyzer, CapturesPulseEnergyInCycleAverages) {
  FakeSource source("pulsy", 10.0);
  source.timeline().add_pulse(0.25, 0.75, 20.0);  // inside first cycle
  PowerAnalyzer analyzer(1.0, perfect_sensor());
  analyzer.add_channel(source);
  analyzer.start(0.0);
  analyzer.sample_at(1.0);
  analyzer.sample_at(2.0);
  const auto& samples = analyzer.report(0).samples;
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].true_watts, 20.0);  // 10 + 20*0.5
  EXPECT_DOUBLE_EQ(samples[1].true_watts, 10.0);
}

TEST(PowerAnalyzer, MultiChannelIndependence) {
  FakeSource a("a", 10.0);
  FakeSource b("b", 30.0);
  PowerAnalyzer analyzer(1.0, perfect_sensor());
  EXPECT_EQ(analyzer.add_channel(a), 0u);
  EXPECT_EQ(analyzer.add_channel(b), 1u);
  analyzer.start(0.0);
  analyzer.sample_at(1.0);
  EXPECT_DOUBLE_EQ(analyzer.report(0).mean_watts(), 10.0);
  EXPECT_DOUBLE_EQ(analyzer.report(1).mean_watts(), 30.0);
}

TEST(PowerAnalyzer, StartAfterEnergyHistoryExcludesIt) {
  FakeSource source("hist", 100.0);
  source.timeline().energy_until(50.0);  // consume some history
  PowerAnalyzer analyzer(1.0, perfect_sensor());
  analyzer.add_channel(source);
  analyzer.start(50.0);
  analyzer.sample_at(51.0);
  EXPECT_DOUBLE_EQ(analyzer.report(0).true_joules, 100.0);
}

TEST(PowerAnalyzer, DuplicateBoundaryIgnored) {
  FakeSource source("dup", 5.0);
  PowerAnalyzer analyzer(1.0, perfect_sensor());
  analyzer.add_channel(source);
  analyzer.start(0.0);
  analyzer.sample_at(1.0);
  analyzer.sample_at(1.0);  // same instant: nothing to integrate
  EXPECT_EQ(analyzer.report(0).samples.size(), 1u);
}

TEST(PowerAnalyzer, SampleBeforeStartThrows) {
  FakeSource source("x", 1.0);
  PowerAnalyzer analyzer(1.0);
  analyzer.add_channel(source);
  EXPECT_THROW(analyzer.sample_at(1.0), std::logic_error);
}

TEST(PowerAnalyzer, AddChannelMidRunThrows) {
  FakeSource a("a", 1.0);
  FakeSource b("b", 1.0);
  PowerAnalyzer analyzer(1.0);
  analyzer.add_channel(a);
  analyzer.start(0.0);
  EXPECT_THROW(analyzer.add_channel(b), std::logic_error);
}

TEST(PowerAnalyzer, ScheduleSamplingOnSimulator) {
  FakeSource source("sim", 7.0);
  PowerAnalyzer analyzer(0.5, perfect_sensor());
  analyzer.add_channel(source);
  sim::Simulator sim;
  analyzer.schedule_sampling(sim, 0.0, 4.0);
  sim.run();
  EXPECT_EQ(analyzer.report(0).samples.size(), 8u);
  EXPECT_DOUBLE_EQ(analyzer.report(0).mean_watts(), 7.0);
}

TEST(PowerAnalyzer, ScheduleSamplingKeepsSampleAtExactWindowEnd) {
  // 0.7 / 0.1 == 6.999... in binary floating point; a bare floor would
  // schedule only 6 samples and drop the one at t_end, shorting the
  // measured window by a full cycle.
  FakeSource source("fp-edge", 11.0);
  PowerAnalyzer analyzer(0.1, perfect_sensor());
  analyzer.add_channel(source);
  sim::Simulator sim;
  analyzer.schedule_sampling(sim, 0.0, 0.7);
  sim.run();
  EXPECT_EQ(analyzer.report(0).samples.size(), 7u);
}

TEST(PowerAnalyzer, StartClearsPriorWindowKeepsChannels) {
  FakeSource source("r", 3.0);
  PowerAnalyzer analyzer(1.0, perfect_sensor());
  analyzer.add_channel(source);
  analyzer.start(0.0);
  analyzer.sample_at(1.0);
  analyzer.sample_at(2.0);
  analyzer.start(2.0);  // a new window drops the old samples and energy
  EXPECT_TRUE(analyzer.report(0).samples.empty());
  EXPECT_EQ(analyzer.report(0).true_joules, 0.0);
  analyzer.sample_at(3.0);
  EXPECT_EQ(analyzer.report(0).samples.size(), 1u);
  EXPECT_DOUBLE_EQ(analyzer.report(0).true_joules, 3.0);
}

}  // namespace
}  // namespace tracer::power
