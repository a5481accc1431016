// Seeded replay workload shared by the replay-path tests: multi-package
// bunches every 2 ms mixing random extents with contiguous 64 KiB run
// fragments, so one trace exercises the controller's elevator merge, RMW
// and full-stripe writes, and sequential HDD hits. The golden report
// literals are captured over this generator; changing it moves them.
#pragma once

#include <cstdint>
#include <utility>

#include "trace/trace.h"
#include "util/rng.h"

namespace tracer::test_support {

inline trace::Trace mixed_trace(std::size_t bunches, std::uint64_t seed,
                                double read_ratio = 0.5) {
  util::Rng rng(seed);
  trace::Trace trace;
  trace.device = "dev";
  Sector seq_cursor = 4096;
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * 0.002;
    const std::size_t packages = 1 + rng.below(4);
    for (std::size_t p = 0; p < packages; ++p) {
      trace::IoPackage pkg;
      if (rng.chance(0.4)) {
        pkg.sector = seq_cursor;
        pkg.bytes = 64 * kKiB;
        seq_cursor += pkg.bytes / kSectorSize;
      } else {
        pkg.sector = rng.below(1ULL << 28) * 8;
        pkg.bytes = (1 + rng.below(32)) * 4096;
      }
      pkg.op = rng.chance(read_ratio) ? OpType::kRead : OpType::kWrite;
      bunch.packages.push_back(pkg);
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

}  // namespace tracer::test_support
