// Evaluation host (§III-A1): the kernel control part. Owns the trace
// repository, builds peak traces on demand (via the synthetic generator),
// applies the proportional filter, runs replays, and meters each test into
// one TestRecord — the whole §III-B procedure as a library call. Callers
// (CampaignRunner, the fleet workers, tracer_cli) store the records in a
// campaign journal, the results database (db/journal.h).
//
// Tests may run concurrently on one host: each gets its own simulator and
// its own array instance, the in-process analogue of Fig 3's multiple
// workload-generator machines and multi-channel power analyzers.
#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/sync.h"

#include "core/metrics.h"
#include "core/replay_engine.h"
#include "db/record.h"
#include "storage/disk_array.h"
#include "trace/repository.h"
#include "trace/trace_source.h"
#include "workload/workload_mode.h"

namespace tracer::core {

struct EvaluationOptions {
  Seconds collection_duration = 4.0;  ///< peak-trace collection window
  Seconds sampling_cycle = 1.0;
  /// Read by nothing in src/: sweeps run through CampaignRunner, whose
  /// CampaignOptions::threads sets the worker count. Kept for callers that
  /// still assign it.
  std::size_t threads = 0;
  std::uint64_t seed = 2024;
  /// Live per-cycle monitoring hook, forwarded to every replay. When tests
  /// run concurrently it is called concurrently from their threads.
  std::function<void(const CycleSnapshot&)> on_cycle;
};

/// One completed test plus the raw replay report backing its record.
struct TestResult {
  db::TestRecord record;
  ReplayReport report;
};

class EvaluationHost {
 public:
  EvaluationHost(const storage::ArrayConfig& array,
                 std::filesystem::path repository_dir,
                 EvaluationOptions options = EvaluationOptions{});

  /// Shared, immutable peak trace for a mode, fetched from the repository
  /// or collected first (IOmeter-style saturation run + trace collector)
  /// when absent. The 10 load levels of one
  /// workload mode (and every filter view derived from them) share ONE
  /// generated/parsed trace: a per-key shared_future guarantees the build
  /// happens exactly once even when a campaign hammers the same key from
  /// many ThreadPool workers concurrently. Cached traces are immutable
  /// shared state — never mutate through the pointer (docs/MODELS.md).
  std::shared_ptr<const trace::Trace> peak_trace_shared(
      const workload::WorkloadMode& mode);

  /// How many times a peak trace was actually generated or parsed (cache
  /// misses). A 10-level sweep over one mode leaves this at 1.
  std::uint64_t peak_build_count() const { return peak_builds_.load(); }

  /// Run one test: filter the mode's peak trace to mode.load_proportion,
  /// replay on a fresh array instance, meter, record. The record's test_id
  /// is left 0; whoever stores the record assigns one. Thread-safe.
  TestResult run_test(const workload::WorkloadMode& mode);

  /// Replay an externally supplied trace (real-world workloads) at a load
  /// proportion. `trace_name` labels the record. The source may be
  /// an in-memory TraceView or a columnar on-disk trace from
  /// open_columnar_source; the latter is never materialized, and both
  /// produce bit-identical metrics for the same trace.
  TestResult run_source(std::shared_ptr<const trace::TraceSource> source,
                        const std::string& trace_name,
                        double load_proportion);

  /// Install/replace the live monitoring hook (see EvaluationOptions).
  /// Not thread-safe with respect to concurrently running tests.
  void set_cycle_callback(std::function<void(const CycleSnapshot&)> hook) {
    options_.on_cycle = std::move(hook);
  }

  const storage::ArrayConfig& array_config() const { return array_; }
  trace::TraceRepository& repository() { return repository_; }

 private:
  /// The one test body: filter (lazy) -> replay -> meter -> record.
  TestResult replay_filtered(std::shared_ptr<const trace::TraceSource> peak,
                             const std::string& trace_name,
                             const workload::WorkloadMode& mode);

  /// Generate (saturation run) or load (repository) the peak trace for a
  /// key — the slow path behind the cache.
  trace::Trace build_peak_trace(const trace::TraceKey& key,
                                const workload::WorkloadMode& mode);

  storage::ArrayConfig array_;
  trace::TraceRepository repository_;
  EvaluationOptions options_;
  using SharedTrace = std::shared_ptr<const trace::Trace>;
  /// One cache slot per trace key; only a failed build removes its slot.
  util::Mutex cache_mutex_;  ///< guards peak_cache_ (not the builds)
  std::unordered_map<std::string, std::shared_future<SharedTrace>> peak_cache_
      TRACER_GUARDED_BY(cache_mutex_);
  std::atomic<std::uint64_t> peak_builds_{0};
};

}  // namespace tracer::core
