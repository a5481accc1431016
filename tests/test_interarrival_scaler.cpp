#include "core/interarrival_scaler.h"

#include <gtest/gtest.h>

namespace tracer::core {
namespace {

trace::Trace make_trace() {
  trace::Trace trace;
  trace.device = "dev";
  for (int i = 0; i < 5; ++i) {
    trace::Bunch bunch;
    bunch.timestamp = i * 2.0;
    bunch.packages.push_back(
        trace::IoPackage{static_cast<Sector>(i), 4096, OpType::kRead});
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

std::shared_ptr<const trace::TraceSource> sample_source() {
  return trace::make_source(trace::TraceView::owning(make_trace()));
}

TEST(InterarrivalScaler, DoubleIntensityHalvesTimestamps) {
  const auto scaled = InterarrivalScaler::scale(sample_source(), 2.0);
  ASSERT_EQ(scaled->bunch_count(), 5u);
  EXPECT_DOUBLE_EQ(scaled->timestamp(1), 1.0);
  EXPECT_DOUBLE_EQ(scaled->timestamp(4), 4.0);
}

TEST(InterarrivalScaler, FractionalIntensityStretches) {
  // 1 % of original intensity (the Fig 2 extreme) -> 100x duration.
  const auto scaled = InterarrivalScaler::scale(sample_source(), 0.01);
  EXPECT_DOUBLE_EQ(scaled->duration(), 800.0);
}

TEST(InterarrivalScaler, KeepsEveryPackage) {
  const trace::Trace original = make_trace();
  const auto scaled = InterarrivalScaler::scale(
      trace::make_source(trace::TraceView::borrowed(original)), 3.0);
  EXPECT_EQ(scaled->package_count(), original.package_count());
  for (std::size_t i = 0; i < original.bunches.size(); ++i) {
    EXPECT_EQ(scaled->packages(i), original.bunches[i].packages);
  }
}

TEST(InterarrivalScaler, UnitFactorIsIdentity) {
  const trace::Trace original = make_trace();
  EXPECT_EQ(trace::materialize(*InterarrivalScaler::scale(
                trace::make_source(trace::TraceView::borrowed(original)),
                1.0)),
            original);
}

TEST(InterarrivalScaler, RejectsNonPositiveFactor) {
  EXPECT_THROW(InterarrivalScaler::scale(sample_source(), 0.0),
               std::invalid_argument);
  EXPECT_THROW(InterarrivalScaler::scale(sample_source(), -2.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace tracer::core
