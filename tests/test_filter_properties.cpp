// Parameterized property sweeps for the proportional filter (§IV): the
// invariants of the paper's selection algorithm must hold for every
// (group size, selection count) pair and every trace shape.
#include <gtest/gtest.h>

#include <set>

#include "core/proportional_filter.h"
#include "util/rng.h"

namespace tracer::core {
namespace {

// ---------- pattern invariants over (group_size, k) ----------

using PatternParam = std::tuple<std::size_t, std::size_t>;  // (g, k)

class FilterPatternProperty : public ::testing::TestWithParam<PatternParam> {
};

TEST_P(FilterPatternProperty, SelectsExactlyKPositions) {
  const auto [g, k] = GetParam();
  const auto pattern = ProportionalFilter::selection_pattern(g, k);
  std::size_t selected = 0;
  for (bool bit : pattern) selected += bit ? 1 : 0;
  EXPECT_EQ(selected, k);
}

TEST_P(FilterPatternProperty, GapsAreBalanced) {
  // Uniform spacing: the distance between consecutive selections differs
  // by at most one slot, and the largest gap is at most ceil(g/k)+1.
  const auto [g, k] = GetParam();
  const auto pattern = ProportionalFilter::selection_pattern(g, k);
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < g; ++i) {
    if (pattern[i]) positions.push_back(i);
  }
  if (positions.size() < 2) return;
  std::size_t lo = g;
  std::size_t hi = 0;
  for (std::size_t i = 1; i < positions.size(); ++i) {
    const std::size_t gap = positions[i] - positions[i - 1];
    lo = std::min(lo, gap);
    hi = std::max(hi, gap);
  }
  EXPECT_LE(hi - lo, 1u) << "g=" << g << " k=" << k;
}

TEST_P(FilterPatternProperty, NestedProportionsAreMonotone) {
  // Increasing k never deselects a previously... (not true for Bresenham
  // in general) — but the COUNT is monotone and the last position stays
  // selected for every k (the paper's anchor: the 10th bunch is always
  // replayed).
  const auto [g, k] = GetParam();
  const auto pattern = ProportionalFilter::selection_pattern(g, k);
  EXPECT_TRUE(pattern[g - 1]) << "g=" << g << " k=" << k;
}

std::vector<PatternParam> pattern_params() {
  std::set<PatternParam> params;
  for (std::size_t g : {2, 3, 5, 8, 10, 16, 100}) {
    for (std::size_t k = 1; k <= g; k = k < 4 ? k + 1 : k * 2) {
      params.emplace(g, k);
    }
    params.emplace(g, g);
  }
  return {params.begin(), params.end()};
}

INSTANTIATE_TEST_SUITE_P(
    GroupAndCount, FilterPatternProperty,
    ::testing::ValuesIn(pattern_params()),
    [](const ::testing::TestParamInfo<PatternParam>& param_info) {
      return "g" + std::to_string(std::get<0>(param_info.param)) + "_k" +
             std::to_string(std::get<1>(param_info.param));
    });

// ---------- trace-level invariants over load proportion ----------

class FilterTraceProperty : public ::testing::TestWithParam<int> {
 protected:
  static trace::Trace bursty_trace() {
    util::Rng rng(99);
    trace::Trace trace;
    trace.device = "prop";
    Seconds t = 0.0;
    for (int b = 0; b < 5000; ++b) {
      t += rng.exponential(0.01);
      trace::Bunch bunch;
      bunch.timestamp = t;
      const std::size_t packages = 1 + rng.below(6);
      for (std::size_t p = 0; p < packages; ++p) {
        bunch.packages.push_back(trace::IoPackage{
            rng.below(1ULL << 30), (1 + rng.below(64)) * 512,
            rng.chance(0.6) ? OpType::kRead : OpType::kWrite});
      }
      trace.bunches.push_back(std::move(bunch));
    }
    return trace;
  }

  /// The filter's selection over `trace`, copied out for inspection.
  static trace::Trace filter(const trace::Trace& trace, double proportion) {
    return trace::materialize(*ProportionalFilter::apply(
        trace::make_source(trace::TraceView::borrowed(trace)), proportion));
  }
};

TEST_P(FilterTraceProperty, BunchCountMatchesConfiguredProportion) {
  const double proportion = GetParam() / 100.0;
  const trace::Trace trace = bursty_trace();
  const trace::Trace filtered = filter(trace, proportion);
  EXPECT_EQ(filtered.bunch_count(),
            trace.bunch_count() / 10 *
                ProportionalFilter::select_count_for(proportion, 10));
}

TEST_P(FilterTraceProperty, FilteredIsSubsequenceOfOriginal) {
  const double proportion = GetParam() / 100.0;
  const trace::Trace trace = bursty_trace();
  const trace::Trace filtered = filter(trace, proportion);
  std::size_t cursor = 0;
  for (const auto& bunch : filtered.bunches) {
    while (cursor < trace.bunches.size() &&
           !(trace.bunches[cursor] == bunch)) {
      ++cursor;
    }
    ASSERT_LT(cursor, trace.bunches.size())
        << "filtered bunch not found in order in the original";
    ++cursor;
  }
}

TEST_P(FilterTraceProperty, PackageShareTracksProportionStatistically) {
  const double proportion = GetParam() / 100.0;
  const trace::Trace trace = bursty_trace();
  const trace::Trace filtered = filter(trace, proportion);
  const double share = static_cast<double>(filtered.package_count()) /
                       static_cast<double>(trace.package_count());
  // 5000 bunches: sampling error well under 4 %.
  EXPECT_NEAR(share, proportion, 0.04 * proportion + 0.002);
}

TEST_P(FilterTraceProperty, ReadRatioIsPreserved) {
  const double proportion = GetParam() / 100.0;
  const trace::Trace trace = bursty_trace();
  const trace::Trace filtered = filter(trace, proportion);
  EXPECT_NEAR(filtered.read_ratio(), trace.read_ratio(), 0.03);
}

TEST_P(FilterTraceProperty, DurationIsNearlyPreserved) {
  // Selected bunches keep original timestamps, so the filtered trace spans
  // (almost) the same window — the property that makes eq. 1 meaningful.
  const double proportion = GetParam() / 100.0;
  const trace::Trace trace = bursty_trace();
  const trace::Trace filtered = filter(trace, proportion);
  EXPECT_GT(filtered.duration(), trace.duration() * 0.99);
}

INSTANTIATE_TEST_SUITE_P(LoadLevels, FilterTraceProperty,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80,
                                           90, 100));

}  // namespace
}  // namespace tracer::core
