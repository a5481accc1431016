// Inter-arrival time scaling — the supplement to bunch filtering shown in
// the Fig 2 GUI: "I/O load intensity of a trace replay can be scaled either
// to 10%, 20%, 30% or 200%, 1000%, 1% of original intensity".
//
// Scaling intensity to s compresses (s > 1) or stretches (s < 1) the gaps
// between bunches by 1/s. Unlike the proportional filter this replays every
// request, so it can exceed 100 % intensity — and, unlike the filter, it
// changes the trace's temporal texture (the ablation bench quantifies
// this).
#pragma once

#include <memory>

#include "trace/trace_source.h"

namespace tracer::core {

class InterarrivalScaler {
 public:
  /// Scale intensity by `factor` in (0, +inf): timestamps divide by factor,
  /// lazily at iteration time (no bunch is copied).
  static std::shared_ptr<const trace::TraceSource> scale(
      std::shared_ptr<const trace::TraceSource> source, double factor);
};

}  // namespace tracer::core
