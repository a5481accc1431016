// Shared helpers for the per-figure/table bench harnesses.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation: it prints (a) the paper's qualitative claim, (b) the measured
// series from the simulated testbed, and (c) a PASS/CHECK verdict on the
// claim's shape; a CHECK verdict makes the binary exit non-zero. Bench
// binaries are plain executables; micro_core uses google-benchmark.
#pragma once

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/evaluation_host.h"
#include "core/proportional_filter.h"
#include "util/string_util.h"
#include "util/table.h"

namespace tracer::bench {

/// The peak-trace repository of a run: `peak-traces` in the working
/// directory, reused by later runs there (the paper's §III-B step 2).
/// `ctest -L paper` gives each bench a fresh working directory and removes
/// it afterwards, so no bench shares traces with another and none replays
/// traces that an older build collected.
inline std::filesystem::path bench_repository_dir() {
  return std::filesystem::current_path() / "peak-traces";
}

inline core::EvaluationOptions bench_options() {
  core::EvaluationOptions options;
  options.collection_duration = 4.0;
  options.sampling_cycle = 1.0;
  options.seed = 0xBEEFCAFE;
  return options;
}

inline void print_header(const std::string& experiment,
                         const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

/// Set once any verdict of this process fails; see verdict_exit_code().
inline bool g_verdict_failed = false;

inline void print_verdict(bool ok, const std::string& what) {
  std::printf("[%s] %s\n\n", ok ? "PASS" : "CHECK", what.c_str());
  if (!ok) g_verdict_failed = true;
}

/// What a bench main returns: non-zero when any verdict printed CHECK, so a
/// shape regression fails the process instead of scrolling past.
inline int verdict_exit_code() { return g_verdict_failed ? 1 : 0; }

/// Is the series monotonically non-decreasing (within fractional slack)?
inline bool mostly_increasing(const std::vector<double>& values,
                              double slack = 0.02) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] < values[i - 1] * (1.0 - slack)) return false;
  }
  return true;
}

inline bool mostly_decreasing(const std::vector<double>& values,
                              double slack = 0.02) {
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[i - 1] * (1.0 + slack)) return false;
  }
  return true;
}

inline const std::vector<double>& load_levels() {
  static const std::vector<double> kLevels = {0.1, 0.2, 0.3, 0.4, 0.5,
                                              0.6, 0.7, 0.8, 0.9, 1.0};
  return kLevels;
}

}  // namespace tracer::bench
