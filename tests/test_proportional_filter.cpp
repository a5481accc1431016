#include "core/proportional_filter.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>

namespace tracer::core {
namespace {

trace::Trace uniform_trace(std::size_t bunches,
                           std::size_t packages_per_bunch = 1) {
  trace::Trace trace;
  trace.device = "dev";
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * 0.01;
    for (std::size_t p = 0; p < packages_per_bunch; ++p) {
      bunch.packages.push_back(
          trace::IoPackage{b * 100 + p, 4096, OpType::kRead});
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

// The filters' selections over `trace`, copied out for inspection.
trace::Trace filter(const trace::Trace& trace, double proportion,
                    std::size_t group_size =
                        ProportionalFilter::kDefaultGroupSize) {
  return trace::materialize(*ProportionalFilter::apply(
      trace::make_source(trace::TraceView::borrowed(trace)), proportion,
      group_size));
}

trace::Trace filter_random(const trace::Trace& trace, double proportion,
                           std::uint64_t seed) {
  return trace::materialize(*ProportionalFilter::apply_random(
      trace::make_source(trace::TraceView::borrowed(trace)), proportion,
      seed));
}

std::vector<std::size_t> selected_positions(std::size_t group_size,
                                            std::size_t k) {
  const auto pattern = ProportionalFilter::selection_pattern(group_size, k);
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i]) positions.push_back(i);
  }
  return positions;
}

TEST(ProportionalFilter, PaperFig5PatternFor10Percent) {
  // "to make the load level be 10% ... selects and replays the tenth bunch
  // of each group" (0-based position 9).
  EXPECT_EQ(selected_positions(10, 1), (std::vector<std::size_t>{9}));
}

TEST(ProportionalFilter, PaperFig5PatternFor20Percent) {
  // "both the fifth and tenth bunches in each group are replayed".
  EXPECT_EQ(selected_positions(10, 2), (std::vector<std::size_t>{4, 9}));
}

TEST(ProportionalFilter, PatternsAreUniformlySpaced) {
  for (std::size_t k = 1; k <= 10; ++k) {
    const auto positions = selected_positions(10, k);
    ASSERT_EQ(positions.size(), k) << "k=" << k;
    if (k > 1) {
      // Gaps differ by at most one slot (Bresenham uniformity).
      std::vector<std::size_t> gaps;
      for (std::size_t i = 1; i < positions.size(); ++i) {
        gaps.push_back(positions[i] - positions[i - 1]);
      }
      const auto [lo, hi] = std::minmax_element(gaps.begin(), gaps.end());
      EXPECT_LE(*hi - *lo, 1u) << "k=" << k;
    }
  }
}

TEST(ProportionalFilter, FullSelectionKeepsEverything) {
  const auto pattern = ProportionalFilter::selection_pattern(10, 10);
  for (bool selected : pattern) EXPECT_TRUE(selected);
}

TEST(ProportionalFilter, SelectionPatternValidation) {
  EXPECT_THROW(ProportionalFilter::selection_pattern(10, 0),
               std::invalid_argument);
  EXPECT_THROW(ProportionalFilter::selection_pattern(10, 11),
               std::invalid_argument);
  EXPECT_THROW(ProportionalFilter::selection_pattern(0, 1),
               std::invalid_argument);
}

TEST(ProportionalFilter, SelectCountRounding) {
  EXPECT_EQ(ProportionalFilter::select_count_for(0.1, 10), 1u);
  EXPECT_EQ(ProportionalFilter::select_count_for(0.05, 10), 1u);  // floor 1
  EXPECT_EQ(ProportionalFilter::select_count_for(0.25, 10), 3u);  // nearest
  EXPECT_EQ(ProportionalFilter::select_count_for(1.0, 10), 10u);
  EXPECT_THROW(ProportionalFilter::select_count_for(0.0, 10),
               std::invalid_argument);
  EXPECT_THROW(ProportionalFilter::select_count_for(1.5, 10),
               std::invalid_argument);
}

TEST(ProportionalFilter, SubFloorProportionThrowsInsteadOfClamping) {
  // Below 1/(2*group_size) the nearest representable selection is zero
  // bunches; the old clamp replayed these at 1/group_size load (0.04
  // silently became 10 %). Now they are refused with a pointer to
  // InterarrivalScaler.
  EXPECT_THROW(ProportionalFilter::select_count_for(0.04, 10),
               std::domain_error);
  EXPECT_THROW(ProportionalFilter::select_count_for(0.01, 10),
               std::domain_error);
  EXPECT_THROW(ProportionalFilter::select_count_for(0.004, 100),
               std::domain_error);
  // The floor scales with group size: 0.04 is representable at group 100.
  EXPECT_EQ(ProportionalFilter::select_count_for(0.04, 100), 4u);
  // Exactly at the floor still rounds up to one bunch per group.
  EXPECT_EQ(ProportionalFilter::select_count_for(0.05, 10), 1u);
  try {
    ProportionalFilter::select_count_for(0.04, 10);
    FAIL() << "expected std::domain_error";
  } catch (const std::domain_error& e) {
    EXPECT_NE(std::string(e.what()).find("InterarrivalScaler"),
              std::string::npos);
  }
}

TEST(ProportionalFilter, SubFloorProportionThrowsFromApply) {
  const trace::Trace trace = uniform_trace(100);
  EXPECT_THROW(filter(trace, 0.04), std::domain_error);
  EXPECT_THROW(filter_random(trace, 0.04, /*seed=*/1),
               std::domain_error);
}

TEST(ProportionalFilter, EveryCompleteGroupContributesExactlyK) {
  const trace::Trace trace = uniform_trace(200);
  for (double proportion : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const trace::Trace filtered =
        filter(trace, proportion);
    const auto k = ProportionalFilter::select_count_for(proportion, 10);
    EXPECT_EQ(filtered.bunch_count(), 20 * k) << proportion;
  }
}

TEST(ProportionalFilter, SelectedBunchesKeepOriginalTimestamps) {
  const trace::Trace trace = uniform_trace(50);
  const trace::Trace filtered = filter(trace, 0.2);
  // 20 % selects positions 4 and 9 of each group of 10.
  ASSERT_EQ(filtered.bunch_count(), 10u);
  EXPECT_DOUBLE_EQ(filtered.bunches[0].timestamp, trace.bunches[4].timestamp);
  EXPECT_DOUBLE_EQ(filtered.bunches[1].timestamp, trace.bunches[9].timestamp);
  EXPECT_EQ(filtered.bunches[0], trace.bunches[4]);
}

TEST(ProportionalFilter, PreservesBunchInternalStructure) {
  const trace::Trace trace = uniform_trace(30, 5);
  const trace::Trace filtered = filter(trace, 0.5);
  for (const auto& bunch : filtered.bunches) {
    EXPECT_EQ(bunch.packages.size(), 5u);
  }
}

TEST(ProportionalFilter, PartialTrailingGroupHandled) {
  const trace::Trace trace = uniform_trace(25);  // 2 groups + 5 leftover
  const trace::Trace filtered = filter(trace, 0.5);
  // Positions {1,3,5,7,9} per group; leftover group of 5 contributes
  // positions 1 and 3 -> 5+5+2.
  EXPECT_EQ(filtered.bunch_count(), 12u);
}

TEST(ProportionalFilter, ProportionOneIsIdentity) {
  const trace::Trace trace = uniform_trace(37);
  EXPECT_EQ(filter(trace, 1.0), trace);
}

TEST(ProportionalFilter, PackageProportionTracksConfigured) {
  const trace::Trace trace = uniform_trace(10000);
  for (double proportion : {0.1, 0.4, 0.8}) {
    const trace::Trace filtered =
        filter(trace, proportion);
    const double measured =
        static_cast<double>(filtered.package_count()) /
        static_cast<double>(trace.package_count());
    EXPECT_NEAR(measured, proportion, 1e-9);
  }
}

TEST(ProportionalFilter, RandomVariantSelectsSameCountPerGroup) {
  const trace::Trace trace = uniform_trace(100);
  const trace::Trace filtered =
      filter_random(trace, 0.3, /*seed=*/1);
  EXPECT_EQ(filtered.bunch_count(), 30u);
  // Bunches remain time-ordered.
  for (std::size_t i = 1; i < filtered.bunches.size(); ++i) {
    EXPECT_LT(filtered.bunches[i - 1].timestamp,
              filtered.bunches[i].timestamp);
  }
}

TEST(ProportionalFilter, RandomVariantIsSeedDeterministic) {
  const trace::Trace trace = uniform_trace(100);
  EXPECT_EQ(filter_random(trace, 0.3, 5),
            filter_random(trace, 0.3, 5));
  EXPECT_NE(filter_random(trace, 0.3, 5),
            filter_random(trace, 0.3, 6));
}

TEST(ProportionalFilter, RandomVariantDiffersFromUniform) {
  const trace::Trace trace = uniform_trace(1000);
  const auto uniform = filter(trace, 0.2);
  const auto random = filter_random(trace, 0.2, 11);
  EXPECT_EQ(uniform.bunch_count(), random.bunch_count());
  EXPECT_NE(uniform, random);
}

TEST(ProportionalFilter, CustomGroupSizes) {
  const trace::Trace trace = uniform_trace(100);
  const trace::Trace fifth = filter(trace, 0.2, 5);
  EXPECT_EQ(fifth.bunch_count(), 20u);
  const auto positions = selected_positions(5, 1);
  EXPECT_EQ(positions, (std::vector<std::size_t>{4}));
}

}  // namespace
}  // namespace tracer::core
