#include "trace/trace_source.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "core/interarrival_scaler.h"
#include "core/proportional_filter.h"
#include "core/replay_engine.h"
#include "storage/disk_array.h"
#include "trace/columnar_format.h"
#include "util/rng.h"

namespace tracer::trace {
namespace {

Trace random_trace(std::size_t bunches, std::uint64_t seed) {
  util::Rng rng(seed);
  Trace trace;
  trace.device = "raid5-hdd6";
  double t = 0.0;
  for (std::size_t b = 0; b < bunches; ++b) {
    Bunch bunch;
    t += rng.uniform(0.2e-3, 2e-3);
    bunch.timestamp = t;
    const std::size_t count = 1 + rng.below(5);
    for (std::size_t p = 0; p < count; ++p) {
      IoPackage pkg;
      pkg.sector = rng.below(1ULL << 34) * 8;
      pkg.bytes = (1 + rng.below(64)) * 512;
      pkg.op = rng.chance(0.5) ? OpType::kRead : OpType::kWrite;
      bunch.packages.push_back(pkg);
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

std::shared_ptr<const Trace> shared_trace(std::size_t bunches,
                                          std::uint64_t seed) {
  return std::make_shared<const Trace>(random_trace(bunches, seed));
}

/// Bit-identical comparison of the metrics both replay paths must agree
/// on. EXPECT_EQ on doubles is deliberate: the TraceSource contract
/// promises the *identical* arithmetic, not merely a close result.
void expect_reports_identical(const core::ReplayReport& a,
                              const core::ReplayReport& b) {
  EXPECT_EQ(a.bunches_replayed, b.bunches_replayed);
  EXPECT_EQ(a.packages_replayed, b.packages_replayed);
  EXPECT_EQ(a.perf.completions, b.perf.completions);
  EXPECT_EQ(a.perf.bytes, b.perf.bytes);
  EXPECT_EQ(a.perf.duration, b.perf.duration);
  EXPECT_EQ(a.perf.iops, b.perf.iops);
  EXPECT_EQ(a.perf.mbps, b.perf.mbps);
  EXPECT_EQ(a.perf.avg_response_ms, b.perf.avg_response_ms);
  EXPECT_EQ(a.perf.p95_response_ms, b.perf.p95_response_ms);
  EXPECT_EQ(a.avg_watts, b.avg_watts);
  EXPECT_EQ(a.avg_true_watts, b.avg_true_watts);
  EXPECT_EQ(a.joules, b.joules);
  EXPECT_EQ(a.replay_duration, b.replay_duration);
}

core::ReplayReport replay_source(const TraceSource& source) {
  core::ReplayEngine engine;
  storage::DiskArray array(engine.simulator(),
                           storage::ArrayConfig::hdd_testbed(6));
  return engine.replay(source, array);
}

// A TraceView handed to the pipeline through make_source is read only via
// the TraceSource interface; it must answer exactly as the view itself.
TEST(ViewSourceTest, MirrorsViewExactly) {
  const auto trace = shared_trace(120, 1);
  const TraceView view(trace);
  const auto source = make_source(view);
  ASSERT_EQ(source->bunch_count(), view.bunch_count());
  EXPECT_EQ(source->device(), view.device());
  EXPECT_EQ(source->package_count(), view.package_count());
  EXPECT_EQ(source->total_bytes(), view.total_bytes());
  EXPECT_EQ(source->read_ratio(), view.read_ratio());
  EXPECT_EQ(source->time_divisor(), view.time_divisor());
  EXPECT_EQ(source->duration(), view.duration());
  EXPECT_EQ(source->mean_request_size(), view.mean_request_size());
  for (std::size_t i = 0; i < source->bunch_count(); ++i) {
    EXPECT_EQ(source->raw_timestamp(i), trace->bunches[i].timestamp);
    EXPECT_EQ(source->timestamp(i), view.timestamp(i));
    EXPECT_EQ(&source->packages(i), &view.packages(i));  // zero-copy
    EXPECT_EQ(&source->packages(i), &trace->bunches[i].packages);
  }
}

TEST(ViewSourceTest, EmptySource) {
  const auto source = make_source(TraceView(std::make_shared<const Trace>()));
  EXPECT_TRUE(source->empty());
  EXPECT_EQ(source->duration(), 0.0);
  EXPECT_EQ(source->mean_request_size(), 0.0);
}

TEST(TraceSliceTest, SelectMatchesViewSelect) {
  const auto trace = shared_trace(100, 2);
  const std::vector<TraceSource::Index> positions = {0, 3, 4, 10, 55, 99};
  const auto selected =
      TraceSlice::select(make_source(TraceView(trace)), positions);
  ASSERT_EQ(selected->bunch_count(), positions.size());
  std::uint64_t packages = 0;
  Bytes bytes = 0;
  std::uint64_t reads = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const Bunch& bunch = trace->bunches[positions[i]];
    EXPECT_EQ(selected->timestamp(i), bunch.timestamp);
    EXPECT_EQ(&selected->packages(i), &bunch.packages);  // zero-copy
    packages += bunch.packages.size();
    bytes += bunch.total_bytes();
    for (const IoPackage& pkg : bunch.packages) {
      reads += pkg.op == OpType::kRead ? 1 : 0;
    }
  }
  EXPECT_EQ(selected->package_count(), packages);
  EXPECT_EQ(selected->total_bytes(), bytes);
  EXPECT_EQ(selected->read_ratio(),
            static_cast<double>(reads) / static_cast<double>(packages));
}

TEST(TraceSliceTest, SelectRejectsBadPositions) {
  const auto source = make_source(TraceView(shared_trace(10, 3)));
  EXPECT_THROW(TraceSlice::select(source, {3, 3}), std::invalid_argument);
  EXPECT_THROW(TraceSlice::select(source, {5, 4}), std::invalid_argument);
  EXPECT_THROW(TraceSlice::select(source, {10}), std::invalid_argument);
  EXPECT_THROW(TraceSlice::select(nullptr, {0}), std::invalid_argument);
}

TEST(TraceSliceTest, ScaledMatchesViewScaledBitExactly) {
  const auto trace = shared_trace(80, 4);
  // scale(select(scale(...))): the divisor accumulates by multiplication
  // in application order, so every timestamp is raw / ((1 * 3.7) * 0.25).
  const std::vector<TraceSource::Index> positions = {1, 7, 20, 21, 63};
  auto s = TraceSlice::scaled(make_source(TraceView(trace)), 3.7);
  s = TraceSlice::select(std::move(s), positions);
  s = TraceSlice::scaled(std::move(s), 0.25);
  const double divisor = (1.0 * 3.7) * 0.25;
  ASSERT_EQ(s->bunch_count(), positions.size());
  EXPECT_EQ(s->time_divisor(), divisor);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    EXPECT_EQ(s->timestamp(i), trace->bunches[positions[i]].timestamp / divisor)
        << i;
  }
  EXPECT_EQ(s->duration(), trace->bunches[63].timestamp / divisor);
}

TEST(TraceSliceTest, ScaledRejectsNonPositiveFactor) {
  const auto source = make_source(TraceView(shared_trace(5, 5)));
  EXPECT_THROW(TraceSlice::scaled(source, 0.0), std::invalid_argument);
  EXPECT_THROW(TraceSlice::scaled(source, -1.0), std::invalid_argument);
}

// --- composition on the one select/scale path, by hand ----------------------

/// Four bunches at 8, 16, 24 and 32 s, one package each: every composed
/// timestamp below is an exact binary fraction.
std::shared_ptr<const TraceSource> four_bunches() {
  Trace trace;
  trace.device = "four";
  for (int b = 1; b <= 4; ++b) {
    Bunch bunch;
    bunch.timestamp = 8.0 * b;
    bunch.packages.push_back(
        IoPackage{static_cast<Sector>(b), 512, OpType::kRead});
    trace.bunches.push_back(std::move(bunch));
  }
  return make_source(TraceView::owning(std::move(trace)));
}

TEST(TraceSliceTest, SelectOfSelectAddressesInnerPositions) {
  // Inner keeps bunches {1, 2, 3} (16, 24, 32 s); outer positions {0, 2}
  // index that selection, so they land on bunches 1 and 3.
  const auto inner = TraceSlice::select(four_bunches(), {1, 2, 3});
  const auto outer = TraceSlice::select(inner, {0, 2});
  ASSERT_EQ(outer->bunch_count(), 2u);
  EXPECT_EQ(outer->timestamp(0), 16.0);
  EXPECT_EQ(outer->timestamp(1), 32.0);
  EXPECT_EQ(outer->packages(0).front().sector, 2u);
  EXPECT_EQ(outer->packages(1).front().sector, 4u);
  EXPECT_EQ(outer->package_count(), 2u);
  // Positions are checked against the inner selection's 3 bunches.
  EXPECT_THROW(TraceSlice::select(inner, {3}), std::invalid_argument);
}

TEST(TraceSliceTest, ScaleOfScaleDividesByProductInApplicationOrder) {
  const auto twice =
      TraceSlice::scaled(TraceSlice::scaled(four_bunches(), 2.0), 4.0);
  EXPECT_EQ(twice->time_divisor(), 8.0);
  EXPECT_EQ(twice->timestamp(0), 1.0);
  EXPECT_EQ(twice->duration(), 4.0);
  // One division by the product, not one per scale: 24 / (0.1 * 3.0) is
  // 79.99999999999999 in binary64, while (24 / 0.1) / 3.0 is 80.
  const auto product =
      TraceSlice::scaled(TraceSlice::scaled(four_bunches(), 0.1), 3.0);
  EXPECT_EQ(product->timestamp(2), 24.0 / (0.1 * 3.0));
  EXPECT_NE(product->timestamp(2), 24.0 / 0.1 / 3.0);
  // Factors multiply in application order: (0.1 * 0.2) * 0.3 differs from
  // 0.1 * (0.2 * 0.3) in the last bit.
  const auto ordered = TraceSlice::scaled(
      TraceSlice::scaled(TraceSlice::scaled(four_bunches(), 0.1), 0.2), 0.3);
  EXPECT_EQ(ordered->time_divisor(), (0.1 * 0.2) * 0.3);
  EXPECT_NE(ordered->time_divisor(), 0.1 * (0.2 * 0.3));
}

TEST(TraceSliceTest, SelectOfScaledKeepsDivisor) {
  const auto selected =
      TraceSlice::select(TraceSlice::scaled(four_bunches(), 8.0), {1, 3});
  EXPECT_EQ(selected->time_divisor(), 8.0);
  ASSERT_EQ(selected->bunch_count(), 2u);
  EXPECT_EQ(selected->raw_timestamp(0), 16.0);
  EXPECT_EQ(selected->timestamp(0), 2.0);
  EXPECT_EQ(selected->timestamp(1), 4.0);
}

TEST(TraceSourceTest, MaterializeReproducesSelection) {
  const auto trace = shared_trace(60, 6);
  const std::vector<TraceSource::Index> positions = {0, 2, 30, 59};
  const auto source = TraceSlice::scaled(
      TraceSlice::select(make_source(TraceView(trace)), positions), 2.0);
  Trace expected;
  expected.device = trace->device;
  for (const TraceSource::Index i : positions) {
    Bunch bunch = trace->bunches[i];
    bunch.timestamp /= 2.0;
    expected.bunches.push_back(std::move(bunch));
  }
  EXPECT_EQ(materialize(*source), expected);
}

TEST(FilterSourceTest, FilterSelectsIdenticalBunchesAsViewPath) {
  const auto trace = shared_trace(200, 7);
  const auto view = make_source(TraceView(trace));
  for (const double proportion : {0.1, 0.3, 0.5, 1.0}) {
    const std::size_t k =
        core::ProportionalFilter::select_count_for(proportion, 10);
    const auto pattern = core::ProportionalFilter::selection_pattern(10, k);
    const auto filtered = core::ProportionalFilter::apply(view, proportion);
    ASSERT_EQ(filtered->bunch_count(), 20 * k) << proportion;
    std::size_t next = 0;
    for (std::size_t i = 0; i < trace->bunch_count(); ++i) {
      if (!pattern[i % 10]) continue;
      EXPECT_EQ(filtered->timestamp(next), trace->bunches[i].timestamp);
      EXPECT_EQ(&filtered->packages(next), &trace->bunches[i].packages);
      ++next;
    }
  }
}

TEST(FilterSourceTest, RandomFilterSameSeedSamePositions) {
  const auto trace = shared_trace(150, 8);
  const auto view = make_source(TraceView(trace));
  const auto first = core::ProportionalFilter::apply_random(view, 0.3, 77);
  const auto second = core::ProportionalFilter::apply_random(view, 0.3, 77);
  ASSERT_EQ(first->bunch_count(), 45u);
  ASSERT_EQ(second->bunch_count(), first->bunch_count());
  for (std::size_t i = 0; i < first->bunch_count(); ++i) {
    EXPECT_EQ(second->raw_timestamp(i), first->raw_timestamp(i));
  }
}

TEST(ScalerSourceTest, ScaleMatchesViewPath) {
  const auto trace = shared_trace(90, 9);
  const auto view = make_source(TraceView(trace));
  const auto scaled = core::InterarrivalScaler::scale(view, 4.0);
  ASSERT_EQ(scaled->bunch_count(), trace->bunch_count());
  for (std::size_t i = 0; i < trace->bunch_count(); ++i) {
    EXPECT_EQ(scaled->timestamp(i), trace->bunches[i].timestamp / 4.0);
  }
}

// --- replay equivalence: the acceptance bar ---------------------------------

TEST(ReplayEquivalenceTest, SourceReplayMatchesViewReplay) {
  // A decorator that selects every position is transparent to replay.
  const auto trace = shared_trace(300, 10);
  const auto view = make_source(TraceView(trace));
  std::vector<TraceSource::Index> every(trace->bunch_count());
  for (std::size_t i = 0; i < every.size(); ++i) {
    every[i] = static_cast<TraceSource::Index>(i);
  }
  expect_reports_identical(replay_source(*view),
                           replay_source(*TraceSlice::select(view, every)));
}

TEST(ReplayEquivalenceTest, FilteredAndScaledPipelinesBitIdentical) {
  // The lazy pipeline replays exactly like its materialized copy.
  const auto trace = shared_trace(250, 11);
  const auto pipeline = core::InterarrivalScaler::scale(
      core::ProportionalFilter::apply(make_source(TraceView(trace)), 0.3),
      2.0);
  expect_reports_identical(
      replay_source(TraceView::owning(materialize(*pipeline))),
      replay_source(*pipeline));
}

// Exact oracle: a 100 % proportional filter keeps every bunch, so its
// replay is the unfiltered replay, bit for bit. EvaluationHost skips the
// filter at load >= 1, so only this test drives apply(source, 1.0). The
// bunch count is not a multiple of the group size, which puts a partial
// group at the end.
TEST(ReplayEquivalenceTest, FullLoadFilterIsIdentityOnView) {
  const auto view = make_source(TraceView(shared_trace(303, 15)));
  const auto full = core::ProportionalFilter::apply(view, 1.0);
  ASSERT_EQ(full->bunch_count(), view->bunch_count());
  expect_reports_identical(replay_source(*view), replay_source(*full));
}

class ColumnarReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tracer_source_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// The tentpole guarantee: replaying a trace streamed from an on-disk v2
// file through small windows produces the same report, bit for bit, as
// replaying the fully materialized in-memory trace.
TEST_F(ColumnarReplayTest, StreamedReplayBitIdenticalToInMemory) {
  const auto trace = shared_trace(400, 12);
  const std::string path = (dir_ / "t.replay2").string();
  write_columnar_file(path, *trace);
  const auto in_memory = replay_source(TraceView(trace));
  ColumnarSource::Options options;
  options.window_bunches = 32;  // dozens of window reloads over the replay
  options.evict_consumed = true;
  const auto streamed = open_columnar_source(path, options);
  expect_reports_identical(in_memory, replay_source(*streamed));
}

TEST_F(ColumnarReplayTest, FilteredColumnarReplayMatchesFilteredView) {
  const auto trace = shared_trace(300, 13);
  const std::string path = (dir_ / "f.replay2").string();
  write_columnar_file(path, *trace);
  const auto via_view = replay_source(
      *core::ProportionalFilter::apply(make_source(TraceView(trace)), 0.2));
  ColumnarSource::Options options;
  options.window_bunches = 16;
  const auto via_columnar = replay_source(*core::ProportionalFilter::apply(
      open_columnar_source(path, options), 0.2));
  expect_reports_identical(via_view, via_columnar);
}

TEST_F(ColumnarReplayTest, FullLoadFilterIsIdentityOnColumnar) {
  const std::string path = (dir_ / "full.replay2").string();
  write_columnar_file(path, *shared_trace(303, 16));
  ColumnarSource::Options options;
  options.window_bunches = 16;
  const auto columnar = open_columnar_source(path, options);
  const auto full = core::ProportionalFilter::apply(columnar, 1.0);
  ASSERT_EQ(full->bunch_count(), columnar->bunch_count());
  expect_reports_identical(replay_source(*columnar), replay_source(*full));
}

TEST_F(ColumnarReplayTest, MaterializedColumnarSourceEqualsOriginal) {
  const auto trace = shared_trace(64, 14);
  const std::string path = (dir_ / "m.replay2").string();
  write_columnar_file(path, *trace);
  ColumnarSource::Options options;
  options.window_bunches = 9;
  EXPECT_EQ(materialize(*open_columnar_source(path, options)), *trace);
}

}  // namespace
}  // namespace tracer::trace
