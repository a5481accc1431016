// TraceView, the in-memory leaf of the trace pipeline: it must mirror its
// Trace exactly, share (not copy) it, and feed the filter, the scaler and
// the replay engine the same input an eager copy-based computation would.
#include <gtest/gtest.h>

#include "core/interarrival_scaler.h"
#include "core/proportional_filter.h"
#include "core/replay_engine.h"
#include "storage/disk_array.h"
#include "trace/trace_source.h"
#include "util/rng.h"

namespace tracer::trace {
namespace {

// Same shape as test_filter_properties' bursty trace: bursty arrivals,
// mixed sizes and ops.
Trace bursty_trace(int bunches = 5000) {
  util::Rng rng(99);
  Trace trace;
  trace.device = "prop";
  Seconds t = 0.0;
  for (int b = 0; b < bunches; ++b) {
    t += rng.exponential(0.01);
    Bunch bunch;
    bunch.timestamp = t;
    const std::size_t packages = 1 + rng.below(6);
    for (std::size_t p = 0; p < packages; ++p) {
      bunch.packages.push_back(IoPackage{
          rng.below(1ULL << 30), (1 + rng.below(64)) * 512,
          rng.chance(0.6) ? OpType::kRead : OpType::kWrite});
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

void expect_source_equals_trace(const TraceSource& source,
                                const Trace& expected) {
  ASSERT_EQ(source.bunch_count(), expected.bunches.size());
  for (std::size_t i = 0; i < source.bunch_count(); ++i) {
    EXPECT_EQ(source.timestamp(i), expected.bunches[i].timestamp) << "i=" << i;
    EXPECT_EQ(source.packages(i), expected.bunches[i].packages) << "i=" << i;
  }
  EXPECT_EQ(materialize(source), expected);
}

/// Eager reference for the filters: copy the bunches at `positions`, with
/// timestamps divided by `divisor`.
Trace copy_positions(const Trace& trace,
                     const std::vector<std::size_t>& positions,
                     double divisor = 1.0) {
  Trace out;
  out.device = trace.device;
  for (const std::size_t i : positions) {
    Bunch bunch = trace.bunches[i];
    bunch.timestamp /= divisor;
    out.bunches.push_back(std::move(bunch));
  }
  return out;
}

/// Positions the paper's uniform rule keeps: i % 10 in the k-of-10 pattern.
std::vector<std::size_t> uniform_positions(std::size_t count,
                                           double proportion) {
  const std::size_t k =
      core::ProportionalFilter::select_count_for(proportion, 10);
  const auto pattern = core::ProportionalFilter::selection_pattern(10, k);
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < count; ++i) {
    if (pattern[i % 10]) positions.push_back(i);
  }
  return positions;
}

std::vector<std::size_t> all_positions(std::size_t count) {
  std::vector<std::size_t> positions(count);
  for (std::size_t i = 0; i < count; ++i) positions[i] = i;
  return positions;
}

TEST(TraceView, FullViewMirrorsTrace) {
  auto shared = std::make_shared<const Trace>(bursty_trace(200));
  TraceView view(shared);
  EXPECT_TRUE(view.valid());
  EXPECT_EQ(view.device(), shared->device);
  EXPECT_EQ(view.time_divisor(), 1.0);
  EXPECT_EQ(view.bunch_count(), shared->bunch_count());
  EXPECT_EQ(view.package_count(), shared->package_count());
  EXPECT_EQ(view.total_bytes(), shared->total_bytes());
  EXPECT_EQ(view.duration(), shared->duration());
  EXPECT_DOUBLE_EQ(view.read_ratio(), shared->read_ratio());
  EXPECT_DOUBLE_EQ(view.mean_request_size(), shared->mean_request_size());
  for (std::size_t i = 0; i < view.bunch_count(); ++i) {
    EXPECT_EQ(view.raw_timestamp(i), shared->bunches[i].timestamp);
    // Zero-copy: the packages read through the view ARE the trace's.
    EXPECT_EQ(&view.packages(i), &shared->bunches[i].packages);
  }
  expect_source_equals_trace(view, *shared);
}

TEST(TraceView, ViewsShareNotCopyTheTrace) {
  auto shared = std::make_shared<const Trace>(bursty_trace(500));
  const auto view = make_source(TraceView(shared));
  const auto filtered = core::ProportionalFilter::apply(view, 0.3);
  const auto scaled = core::InterarrivalScaler::scale(filtered, 2.0);
  // The pipeline holds the one shared trace, and the packages read through
  // it ARE the trace's: 30 % keeps positions 3, 6 and 9 of each group.
  EXPECT_EQ(shared.use_count(), 2);
  for (const auto* source : {filtered.get(), scaled.get()}) {
    EXPECT_EQ(&source->packages(0), &shared->bunches[3].packages);
    EXPECT_EQ(&source->packages(4), &shared->bunches[16].packages);
  }
}

TEST(TraceView, DefaultViewIsEmptyAndInvalid) {
  TraceView view;
  EXPECT_FALSE(view.valid());
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.device(), "");
  EXPECT_EQ(view.bunch_count(), 0u);
  EXPECT_EQ(view.package_count(), 0u);
  EXPECT_EQ(view.duration(), 0.0);
  EXPECT_TRUE(materialize(view).empty());
  // A view of an empty trace is valid but just as empty.
  const TraceView empty_trace = TraceView::owning(Trace{});
  EXPECT_TRUE(empty_trace.valid());
  EXPECT_TRUE(empty_trace.empty());
  EXPECT_EQ(empty_trace.duration(), 0.0);
  EXPECT_EQ(empty_trace.mean_request_size(), 0.0);
}

TEST(TraceView, BorrowedAndOwningViewsAgree) {
  Trace trace = bursty_trace(100);
  TraceView borrowed = TraceView::borrowed(trace);
  TraceView owning = TraceView::owning(trace);  // copy moved in
  expect_source_equals_trace(borrowed, trace);
  expect_source_equals_trace(owning, trace);
  EXPECT_EQ(&borrowed.packages(0), &trace.bunches[0].packages);
  EXPECT_NE(&owning.packages(0), &trace.bunches[0].packages);
}

TEST(TraceView, SelectValidatesPositions) {
  const auto view =
      make_source(TraceView(std::make_shared<const Trace>(bursty_trace(20))));
  EXPECT_THROW(TraceSlice::select(view, {0, 0}), std::invalid_argument);
  EXPECT_THROW(TraceSlice::select(view, {5, 3}), std::invalid_argument);
  EXPECT_THROW(TraceSlice::select(view, {25}), std::invalid_argument);
  // An invalid view has no bunches, so no position is in range.
  EXPECT_THROW(TraceSlice::select(make_source(TraceView{}), {0}),
               std::invalid_argument);
  EXPECT_THROW(TraceSlice::scaled(view, 0.0), std::invalid_argument);
  EXPECT_THROW(TraceSlice::scaled(view, -1.0), std::invalid_argument);
}

TEST(TraceView, SelectComposesThroughViewPositions) {
  const Trace trace = bursty_trace(100);
  const auto view = make_source(TraceView::borrowed(trace));
  // First keep even underlying indices, then the first three positions of
  // that selection: composition must land on underlying 0, 2, 4 — not
  // 0, 1, 2.
  std::vector<TraceSource::Index> evens;
  for (TraceSource::Index i = 0; i < 100; i += 2) evens.push_back(i);
  const auto first3 =
      TraceSlice::select(TraceSlice::select(view, std::move(evens)), {0, 1, 2});
  ASSERT_EQ(first3->bunch_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first3->raw_timestamp(i), trace.bunches[2 * i].timestamp);
    EXPECT_EQ(&first3->packages(i), &trace.bunches[2 * i].packages);
  }
}

// ---------- the lazy pipeline against eager copy-based references ----------

class ViewPipelineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ViewPipelineEquivalence, UniformFilterMatchesMaterializingPath) {
  const double proportion = GetParam() / 100.0;
  const Trace trace = bursty_trace();
  const auto filtered = core::ProportionalFilter::apply(
      make_source(TraceView::borrowed(trace)), proportion);
  expect_source_equals_trace(
      *filtered, copy_positions(trace, uniform_positions(trace.bunch_count(),
                                                         proportion)));
}

TEST_P(ViewPipelineEquivalence, RandomFilterMatchesMaterializingPath) {
  // No closed form for the drawn positions; the reference is the
  // within-group contract: exactly k bunches from each full group, in
  // order, each one the underlying bunch it came from.
  const double proportion = GetParam() / 100.0;
  const std::uint64_t seed = 0xfeedULL + static_cast<std::uint64_t>(GetParam());
  const Trace trace = bursty_trace();
  const auto source = make_source(TraceView::borrowed(trace));
  const auto filtered =
      core::ProportionalFilter::apply_random(source, proportion, seed);
  const std::size_t k =
      core::ProportionalFilter::select_count_for(proportion, 10);
  ASSERT_EQ(filtered->bunch_count(), trace.bunch_count() / 10 * k);
  std::vector<std::size_t> positions;
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < filtered->bunch_count(); ++i) {
    while (&trace.bunches[cursor].packages != &filtered->packages(i)) {
      ++cursor;
      ASSERT_LT(cursor, trace.bunch_count()) << "i=" << i;
    }
    EXPECT_EQ(cursor / 10, i / k) << "i=" << i;
    positions.push_back(cursor++);
  }
  expect_source_equals_trace(*filtered, copy_positions(trace, positions));
  expect_source_equals_trace(
      *core::ProportionalFilter::apply_random(source, proportion, seed),
      materialize(*filtered));
}

TEST_P(ViewPipelineEquivalence, ScalerMatchesMaterializingPath) {
  const double factor = GetParam() / 100.0 * 3.0;  // 0.3 .. 3.0
  const Trace trace = bursty_trace();
  const auto scaled = core::InterarrivalScaler::scale(
      make_source(TraceView::borrowed(trace)), factor);
  expect_source_equals_trace(
      *scaled,
      copy_positions(trace, all_positions(trace.bunch_count()), factor));
}

TEST_P(ViewPipelineEquivalence, FilterThenScaleMatchesMaterializingPath) {
  const double proportion = GetParam() / 100.0;
  const Trace trace = bursty_trace();
  const auto pipeline = core::InterarrivalScaler::scale(
      core::ProportionalFilter::apply(make_source(TraceView::borrowed(trace)),
                                      proportion),
      4.0);
  expect_source_equals_trace(
      *pipeline,
      copy_positions(trace, uniform_positions(trace.bunch_count(), proportion),
                     4.0));
}

INSTANTIATE_TEST_SUITE_P(LoadLevels, ViewPipelineEquivalence,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80,
                                           90, 100));

// ---------- replay-metric identity (no behavioral drift) ----------

TEST(TraceViewReplay, ViewReplayIsBitIdenticalToMaterializedReplay) {
  const Trace peak = bursty_trace(800);
  const double proportion = 0.3;

  const auto filtered_view = core::ProportionalFilter::apply(
      make_source(TraceView::borrowed(peak)), proportion);
  const TraceView filtered_trace =
      TraceView::owning(materialize(*filtered_view));
  core::ReplayEngine materialized_engine;
  storage::DiskArray materialized_array(
      materialized_engine.simulator(), storage::ArrayConfig::hdd_testbed(6));
  const auto materialized =
      materialized_engine.replay(filtered_trace, materialized_array);

  core::ReplayEngine view_engine;
  storage::DiskArray view_array(view_engine.simulator(),
                                storage::ArrayConfig::hdd_testbed(6));
  const auto viewed = view_engine.replay(*filtered_view, view_array);

  EXPECT_EQ(viewed.bunches_replayed, materialized.bunches_replayed);
  EXPECT_EQ(viewed.packages_replayed, materialized.packages_replayed);
  EXPECT_EQ(viewed.replay_duration, materialized.replay_duration);
  EXPECT_EQ(viewed.perf.iops, materialized.perf.iops);
  EXPECT_EQ(viewed.perf.mbps, materialized.perf.mbps);
  EXPECT_EQ(viewed.perf.avg_response_ms, materialized.perf.avg_response_ms);
  EXPECT_EQ(viewed.avg_watts, materialized.avg_watts);
  EXPECT_EQ(viewed.joules, materialized.joules);
  EXPECT_EQ(viewed.efficiency.iops_per_watt,
            materialized.efficiency.iops_per_watt);
  EXPECT_EQ(viewed.efficiency.mbps_per_kilowatt,
            materialized.efficiency.mbps_per_kilowatt);
  // The replay must never have been saturated into clamping events.
  EXPECT_EQ(view_engine.simulator().late_schedule_count(), 0u);
}

}  // namespace
}  // namespace tracer::trace
