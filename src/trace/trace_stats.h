// Workload characterisation of a trace — the statistics the paper reports
// in Table III (file-system size, dataset size, read ratio, average request
// size) plus the sequentiality and intensity measures the load-control
// analysis needs.
#pragma once

#include <cstdint>

#include "trace/trace_source.h"

namespace tracer::trace {

struct TraceStats {
  std::uint64_t bunches = 0;
  std::uint64_t packages = 0;
  Seconds duration = 0.0;

  double read_ratio = 0.0;       ///< fraction of packages that are reads
  double mean_request_kb = 0.0;  ///< average request size (KB, Table III)
  Bytes total_bytes = 0;

  /// Unique footprint touched by the trace ("DataSet (GB)" in Table III):
  /// the measure of merged distinct extents.
  Bytes dataset_bytes = 0;
  /// Span from lowest to highest touched byte ("File System Size" proxy).
  Bytes address_span_bytes = 0;

  /// Fraction of packages whose start sector continues the previous
  /// package's end (per-trace sequentiality; 1 - random ratio estimate).
  double sequential_ratio = 0.0;

  double mean_iops = 0.0;  ///< packages / duration
  double mean_mbps = 0.0;  ///< total bytes / duration / 1e6
};

/// One in-order pass over any TraceSource plus an extent merge for the
/// footprint. The extent buffer is compacted (sorted + merged in place)
/// whenever it reaches `compact_threshold` entries, so characterising a
/// huge on-disk columnar trace runs in O(decode window + distinct extents
/// after merging) memory instead of O(total packages). Compaction never
/// changes the result. Wrap an in-memory Trace with TraceView::borrowed.
TraceStats compute_stats(const TraceSource& source,
                         std::size_t compact_threshold = 1u << 20);

}  // namespace tracer::trace
