// Wall-clock trace replayer.
//
// The DES ReplayEngine is what the benches use (fast, deterministic); this
// replayer is the deployable tool shape: a dedicated issuing thread sleeps
// until each bunch's timestamp and pushes its packages to a RealtimeTarget
// (on a production system: an io_uring/O_DIRECT backend against a real
// block device). Completions stream back over an SPSC queue to the
// monitoring thread, which aggregates per-cycle statistics exactly like
// the DES path.
//
// To replay faster than the trace's own clock, scale the source first
// (InterarrivalScaler::scale, the Fig 2 inter-arrival scaling).
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>

#include "core/perf_monitor.h"
#include "storage/io_request.h"
#include "trace/trace_source.h"
#include "util/cancel_token.h"
#include "util/spsc_queue.h"
#include "util/sync.h"

namespace tracer::core {

/// Destination of real-time replay. Implementations must be thread-safe:
/// submit() is called from the issuing thread.
class RealtimeTarget {
 public:
  virtual ~RealtimeTarget() = default;

  /// Submit one request; `issue_time` is seconds since replay start.
  /// Implementations call `done(latency_seconds)` when the I/O completes
  /// (possibly on another thread).
  virtual void submit(const storage::IoRequest& request, Seconds issue_time,
                      std::function<void(Seconds)> done) = 0;
};

/// A RealtimeTarget that services requests after a synthetic latency on a
/// small worker thread — the test double standing in for real hardware.
class SyntheticRealtimeTarget final : public RealtimeTarget {
 public:
  /// latency_model: request -> service latency in seconds.
  explicit SyntheticRealtimeTarget(
      std::function<Seconds(const storage::IoRequest&)> latency_model);
  ~SyntheticRealtimeTarget() override;

  void submit(const storage::IoRequest& request, Seconds issue_time,
              std::function<void(Seconds)> done) override;

 private:
  struct Job {
    Seconds latency;
    std::function<void(Seconds)> done;
  };
  void worker_loop();

  std::function<Seconds(const storage::IoRequest&)> latency_model_;
  util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<Job> jobs_ TRACER_GUARDED_BY(mutex_);
  /// Shutdown latch; same contract as ThreadPool::stopping_ — the store is
  /// a release made while holding mutex_ (so a worker between predicate
  /// check and wait cannot miss the notify), reads under the lock relax.
  std::atomic<bool> stopping_{false};
  std::thread worker_;
};

struct RealtimeReport {
  std::uint64_t packages = 0;
  Bytes bytes = 0;
  Seconds wall_duration = 0.0;  ///< actual elapsed wall time
  double iops = 0.0;
  double mbps = 0.0;
  double avg_latency_ms = 0.0;
  double max_timing_error_ms = 0.0;  ///< |actual - scheduled| issue skew
  bool stopped = false;  ///< replay was cut short by cancellation
};

class RealtimeReplayer {
 public:
  /// Blocking: replays the whole source, then waits for completions. The
  /// issuing thread reads bunches in order through the source's selection
  /// (no copy). Wrap a plain Trace with TraceView::borrowed.
  RealtimeReport replay(const trace::TraceSource& source,
                        RealtimeTarget& target);

  /// Cooperative stop latch for a replay running on another thread (a
  /// wall-clock replay of a long trace blocks for its full duration, so a
  /// Ctrl-C path needs this). request_cancel() is an atomic store — safe
  /// from any thread or a signal handler. The issuing loop polls it
  /// between bunches and inside its inter-bunch sleep (sliced, so a
  /// seconds-long gap still stops within ~10 ms); in-flight completions
  /// are ALWAYS drained before replay() returns — their callbacks write
  /// into replay()'s stack frame, so returning with I/O outstanding would
  /// be a use-after-return, not a fast shutdown. The latch persists across
  /// replays (like util::CancelToken everywhere else); reset() re-arms it.
  util::CancelToken& cancel_token() { return cancel_; }

 private:
  util::CancelToken cancel_;
};

}  // namespace tracer::core
