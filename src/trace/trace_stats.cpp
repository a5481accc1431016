#include "trace/trace_stats.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace tracer::trace {

namespace {

using ByteExtent = std::pair<Bytes, Bytes>;  // [begin, end) in bytes

/// Sort + merge touching/overlapping extents in place, returning the total
/// merged measure. Merging is associative, so compacting periodically and
/// re-merging at the end yields exactly the single-pass result.
Bytes merge_in_place(std::vector<ByteExtent>& extents) {
  if (extents.empty()) return 0;
  std::sort(extents.begin(), extents.end());
  Bytes merged = 0;
  std::size_t out = 0;
  Bytes cur_begin = extents.front().first;
  Bytes cur_end = extents.front().second;
  for (std::size_t i = 1; i < extents.size(); ++i) {
    const auto& [begin, end] = extents[i];
    if (begin <= cur_end) {
      cur_end = std::max(cur_end, end);
    } else {
      merged += cur_end - cur_begin;
      extents[out++] = {cur_begin, cur_end};
      cur_begin = begin;
      cur_end = end;
    }
  }
  merged += cur_end - cur_begin;
  extents[out++] = {cur_begin, cur_end};
  extents.resize(out);
  return merged;
}

/// Single-pass accumulator over the packages in trace order.
struct StatsAccumulator {
  explicit StatsAccumulator(std::size_t compact_threshold)
      : compact_threshold_(std::max<std::size_t>(compact_threshold, 2)) {}

  void add(const IoPackage& pkg) {
    ++stats.packages;
    stats.total_bytes += pkg.bytes;
    if (pkg.op == OpType::kRead) ++reads_;
    if (have_prev_ && pkg.sector == prev_end_) ++sequential_;
    prev_end_ = pkg.sector + (pkg.bytes + kSectorSize - 1) / kSectorSize;
    have_prev_ = true;

    const Bytes begin = pkg.sector * kSectorSize;
    const ByteExtent extent{begin, begin + pkg.bytes};
    // The span endpoints are tracked over *raw* extents (min begin and the
    // lexicographically greatest extent), matching the sorted-raw-list
    // formula of the original implementation — compaction must not change
    // them, so they cannot be derived from the merged buffer.
    if (!have_span_ || begin < span_min_) span_min_ = begin;
    if (!have_span_ || span_max_ < extent) span_max_ = extent;
    have_span_ = true;
    extents_.push_back(extent);
    if (extents_.size() >= compact_threshold_) merge_in_place(extents_);
  }

  TraceStats finish() {
    if (stats.packages > 0) {
      stats.read_ratio =
          static_cast<double>(reads_) / static_cast<double>(stats.packages);
      stats.mean_request_kb = static_cast<double>(stats.total_bytes) /
                              static_cast<double>(stats.packages) / 1024.0;
      // The first package has no predecessor, so normalise over n-1 gaps.
      if (stats.packages > 1) {
        stats.sequential_ratio = static_cast<double>(sequential_) /
                                 static_cast<double>(stats.packages - 1);
      }
    }
    if (!extents_.empty()) {
      stats.dataset_bytes = merge_in_place(extents_);
      stats.address_span_bytes = span_max_.second - span_min_;
    }
    if (stats.duration > 0.0) {
      stats.mean_iops = static_cast<double>(stats.packages) / stats.duration;
      stats.mean_mbps =
          static_cast<double>(stats.total_bytes) / stats.duration / 1.0e6;
    }
    return std::move(stats);
  }

  TraceStats stats;

 private:
  std::size_t compact_threshold_;
  std::vector<ByteExtent> extents_;
  std::uint64_t reads_ = 0;
  std::uint64_t sequential_ = 0;
  bool have_prev_ = false;
  Sector prev_end_ = 0;
  bool have_span_ = false;
  Bytes span_min_ = 0;
  ByteExtent span_max_{0, 0};
};

}  // namespace

TraceStats compute_stats(const TraceSource& source,
                         std::size_t compact_threshold) {
  StatsAccumulator acc(compact_threshold);
  acc.stats.bunches = source.bunch_count();
  acc.stats.duration = source.duration();
  // Strictly in-order packages() calls: a window-backed source slides one
  // decode window through the file, never materialising the whole trace.
  for (std::size_t i = 0; i < source.bunch_count(); ++i) {
    for (const auto& pkg : source.packages(i)) acc.add(pkg);
  }
  return acc.finish();
}

}  // namespace tracer::trace
