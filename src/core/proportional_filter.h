// The proportional filter — TRACER's core contribution (§IV).
//
// Bunches are partitioned into groups of `group_size` (paper: 10)
// consecutive bunches; within every group the same k positions are
// selected, spaced uniformly, so replaying the selected bunches yields
// k/group_size of the original intensity while preserving the trace's
// macroscopic shape (Fig 5). Selected bunches keep their original
// timestamps; unselected bunches are dropped entirely.
//
// The uniform spacing uses the Bresenham-style rule: position i (0-based)
// is selected iff floor((i+1)k/g) > floor(ik/g). For g = 10 this
// reproduces the paper's Fig 5 patterns exactly — 10 % selects the 10th
// bunch of each group, 20 % the 5th and 10th, and so on.
//
// A random-selection variant (k positions drawn per group) is provided as
// the baseline the paper argues against: "random filtering bunches can
// possibly lead to distorted features of replayed traces".
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "trace/trace_source.h"

namespace tracer::core {

class ProportionalFilter {
 public:
  static constexpr std::size_t kDefaultGroupSize = 10;

  /// Which of the `group_size` positions the uniform rule selects for a
  /// given k (select_count). Exposed for tests and for Fig 5 style dumps.
  static std::vector<bool> selection_pattern(std::size_t group_size,
                                             std::size_t select_count);

  /// Round proportion (0,1] to the nearest achievable k/group_size >= 1.
  static std::size_t select_count_for(double proportion,
                                      std::size_t group_size);

  /// Uniform filter (the paper's algorithm) over any TraceSource
  /// (in-memory view or on-disk columnar trace). Returns a lazy slice:
  /// filtering a multi-GB columnar trace costs one u32 index vector, never
  /// a decoded copy. Selected bunches keep their timestamps.
  static std::shared_ptr<const trace::TraceSource> apply(
      std::shared_ptr<const trace::TraceSource> source, double proportion,
      std::size_t group_size = kDefaultGroupSize);

  /// Random-within-group baseline (ablation): selects the same number of
  /// bunches per group but at random positions; a seed fixes the positions.
  static std::shared_ptr<const trace::TraceSource> apply_random(
      std::shared_ptr<const trace::TraceSource> source, double proportion,
      std::uint64_t seed, std::size_t group_size = kDefaultGroupSize);
};

}  // namespace tracer::core
