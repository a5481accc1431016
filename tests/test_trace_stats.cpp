#include "trace/trace_stats.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "trace/blk_format.h"
#include "trace/columnar_format.h"

namespace tracer::trace {
namespace {

Trace make_trace(std::vector<std::tuple<Seconds, Sector, Bytes, OpType>> pkgs) {
  Trace trace;
  for (const auto& [t, sector, bytes, op] : pkgs) {
    Bunch bunch;
    bunch.timestamp = t;
    bunch.packages.push_back(IoPackage{sector, bytes, op});
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

TEST(TraceStats, EmptyTrace) {
  const TraceStats stats = compute_stats(TraceView::owning({}));
  EXPECT_EQ(stats.packages, 0u);
  EXPECT_EQ(stats.dataset_bytes, 0u);
  EXPECT_EQ(stats.mean_iops, 0.0);
}

TEST(TraceStats, BasicCountsAndRatios) {
  const Trace trace = make_trace({
      {0.0, 0, 4096, OpType::kRead},
      {1.0, 100, 8192, OpType::kWrite},
      {2.0, 200, 4096, OpType::kRead},
      {4.0, 300, 4096, OpType::kRead},
  });
  const TraceStats stats = compute_stats(TraceView::borrowed(trace));
  EXPECT_EQ(stats.packages, 4u);
  EXPECT_EQ(stats.bunches, 4u);
  EXPECT_DOUBLE_EQ(stats.duration, 4.0);
  EXPECT_DOUBLE_EQ(stats.read_ratio, 0.75);
  EXPECT_NEAR(stats.mean_request_kb, 20480.0 / 4 / 1024.0, 1e-9);
  EXPECT_DOUBLE_EQ(stats.mean_iops, 1.0);
}

TEST(TraceStats, FootprintMergesOverlappingExtents) {
  // Two overlapping 8 KB reads and one disjoint 4 KB read.
  const Trace trace = make_trace({
      {0.0, 0, 8192, OpType::kRead},    // [0, 8192)
      {1.0, 8, 8192, OpType::kRead},    // [4096, 12288) overlaps
      {2.0, 1000, 4096, OpType::kRead}, // [512000, 516096)
  });
  const TraceStats stats = compute_stats(TraceView::borrowed(trace));
  EXPECT_EQ(stats.dataset_bytes, 12288u + 4096u);
  EXPECT_EQ(stats.address_span_bytes, 1000u * 512 + 4096 - 0);
}

TEST(TraceStats, RepeatedAccessCountsFootprintOnce) {
  const Trace trace = make_trace({
      {0.0, 0, 4096, OpType::kRead},
      {1.0, 0, 4096, OpType::kWrite},
      {2.0, 0, 4096, OpType::kRead},
  });
  const TraceStats stats = compute_stats(TraceView::borrowed(trace));
  EXPECT_EQ(stats.dataset_bytes, 4096u);
  EXPECT_EQ(stats.total_bytes, 3u * 4096);
}

TEST(TraceStats, SequentialRatioDetectsRuns) {
  // 0->8->16 sequential (4 KB = 8 sectors), then a jump.
  const Trace trace = make_trace({
      {0.0, 0, 4096, OpType::kRead},
      {1.0, 8, 4096, OpType::kRead},
      {2.0, 16, 4096, OpType::kRead},
      {3.0, 10000, 4096, OpType::kRead},
  });
  const TraceStats stats = compute_stats(TraceView::borrowed(trace));
  EXPECT_NEAR(stats.sequential_ratio, 2.0 / 3.0, 1e-12);
}

TEST(TraceStats, FullyRandomHasZeroSequentialRatio) {
  const Trace trace = make_trace({
      {0.0, 0, 4096, OpType::kRead},
      {1.0, 5000, 4096, OpType::kRead},
      {2.0, 90000, 4096, OpType::kRead},
  });
  EXPECT_DOUBLE_EQ(
      compute_stats(TraceView::borrowed(trace)).sequential_ratio, 0.0);
}

TEST(TraceStats, ThroughputUsesDecimalMb) {
  const Trace trace = make_trace({
      {0.0, 0, 500000, OpType::kRead},
      {1.0, 10000, 500000, OpType::kRead},
  });
  const TraceStats stats = compute_stats(TraceView::borrowed(trace));
  EXPECT_DOUBLE_EQ(stats.mean_mbps, 1.0);  // 1e6 bytes over 1 s
}

// ---------------------------------------------------------------------------
// Compaction and columnar streaming: identical results to one uncompacted
// in-memory pass, in O(window) memory (`trace_tools info` on huge .replay2
// files rides on this).
// ---------------------------------------------------------------------------

void expect_same_stats(const TraceStats& a, const TraceStats& b) {
  EXPECT_EQ(a.bunches, b.bunches);
  EXPECT_EQ(a.packages, b.packages);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.read_ratio, b.read_ratio);
  EXPECT_EQ(a.mean_request_kb, b.mean_request_kb);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.dataset_bytes, b.dataset_bytes);
  EXPECT_EQ(a.address_span_bytes, b.address_span_bytes);
  EXPECT_EQ(a.sequential_ratio, b.sequential_ratio);
  EXPECT_EQ(a.mean_iops, b.mean_iops);
  EXPECT_EQ(a.mean_mbps, b.mean_mbps);
}

Trace mixed_workload_trace() {
  // Overlapping, touching, duplicate, and sequential extents across a wide
  // address range — everything the extent merge has to get right.
  Trace trace;
  trace.device = "stats-mixed";
  std::uint64_t state = 42;
  Sector seq_cursor = 1 << 20;
  for (std::size_t i = 0; i < 500; ++i) {
    Bunch bunch;
    bunch.timestamp = static_cast<double>(i) * 0.01;
    const std::size_t count = 1 + (state >> 5) % 3;
    for (std::size_t p = 0; p < count; ++p) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      IoPackage pkg;
      pkg.op = (state >> 7) % 2 ? OpType::kRead : OpType::kWrite;
      if ((state >> 9) % 3 == 0) {
        pkg.sector = seq_cursor;  // sequential run fragment
        pkg.bytes = 65536;
        seq_cursor += 65536 / kSectorSize;
      } else {
        pkg.sector = (state >> 16) % (1 << 22);
        pkg.bytes = 4096 + (state >> 40) % 16 * 4096;
      }
      bunch.packages.push_back(pkg);
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

TEST(TraceStats, StreamingMatchesMaterialized) {
  const auto trace = std::make_shared<const Trace>(mixed_workload_trace());
  const auto source = make_source(TraceView(trace));
  const TraceStats reference = compute_stats(*source, ~std::size_t{0});
  // Default threshold (never reached here) and a tiny one that forces the
  // extent buffer through many compaction rounds must both be exact.
  expect_same_stats(compute_stats(*source), reference);
  expect_same_stats(compute_stats(*source, 4), reference);
}

TEST(TraceStats, StreamingColumnarFileMatchesMaterialized) {
  const Trace trace = mixed_workload_trace();
  const auto dir = std::filesystem::temp_directory_path();
  const auto v1 = (dir / "stats_stream.replay").string();
  const auto v2 = (dir / "stats_stream.replay2").string();
  write_blk_file(v1, trace);
  convert_blk_to_columnar(v1, v2);
  const auto source = open_columnar_source(v2);
  expect_same_stats(compute_stats(*source, 8),
                    compute_stats(TraceView::borrowed(trace)));
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(TraceStats, CompactionPreservesAddressSpanQuirk) {
  // The span formula is (lexicographically greatest raw extent).end - min
  // begin, NOT the greatest end: extent [1000, 1000+64K) reaches further
  // than [1008, 1008+4K), but the latter sorts greater. A compaction that
  // merged the two before taking the endpoints would report the merged
  // (greater) end — the streaming path must preserve the raw-extent value.
  const Trace trace = make_trace({
      {0.0, 1000, 65536, OpType::kRead},
      {1.0, 1008, 4096, OpType::kWrite},
      {2.0, 500, 4096, OpType::kRead},
  });
  const TraceStats reference = compute_stats(TraceView::borrowed(trace));
  EXPECT_EQ(reference.address_span_bytes,
            1008 * kSectorSize + 4096 - 500 * kSectorSize);
  const auto source =
      make_source(TraceView(std::make_shared<const Trace>(trace)));
  expect_same_stats(compute_stats(*source, 2), reference);
}

}  // namespace
}  // namespace tracer::trace
