// Discrete-event trace replay engine (§IV-A).
//
// Replays a (possibly filtered/scaled) trace against a block device:
// bunches are issued at their original timestamps, the concurrent
// IO_packages of a bunch are submitted in parallel, and unselected bunches
// were already dropped by the filter. Replay is open-loop — the trace's
// timing, not the device's completions, paces submission, exactly like a
// blktrace replay onto real hardware.
//
// While the replay runs, a PerfMonitor aggregates completions per sampling
// cycle and a PowerAnalyzer channel meters the device, so one call yields
// the full database record: throughput, response time, power, and the two
// efficiency metrics.
#pragma once

#include <functional>
#include <memory>

#include "core/metrics.h"
#include "core/perf_monitor.h"
#include "power/power_analyzer.h"
#include "sim/simulator.h"
#include "storage/block_device.h"
#include "trace/trace_source.h"

namespace tracer::core {

/// Fold a trace sector into the device, keeping request-size alignment so
/// sequential runs in the trace stay sequential on the device. The result
/// is a valid start sector: wrap + ceil(bytes/512) never exceeds the
/// device's sector count. Throws when the request itself is larger than
/// the device. Replay folds every package this way; exposed here so
/// boundary behaviour is directly testable.
Sector wrap_sector(Sector sector, Bytes bytes, Bytes capacity);

/// One sampling-cycle snapshot — what the paper's GUI displays in real
/// time ("the users are able to view real-time energy dissipation, I/O
/// throughput (IOPS and MBPS), and energy-efficiency values", §III-B).
struct CycleSnapshot {
  Seconds time = 0.0;          ///< cycle end (replay clock)
  double iops = 0.0;           ///< this cycle's completion rate
  double mbps = 0.0;           ///< this cycle's data rate
  Watts watts = 0.0;           ///< this cycle's measured average power
  std::uint64_t completions = 0;  ///< cumulative completions
  std::uint64_t in_flight = 0;    ///< requests outstanding right now
};

/// Replay settings. Load is set by the source, not here: filter it
/// (ProportionalFilter) or scale its inter-arrival gaps
/// (InterarrivalScaler) before the replay.
struct ReplayOptions {
  Seconds sampling_cycle = 1.0;  ///< paper default: 1 s, configurable
  /// Replay this prefix of the trace to populate device state —
  /// controller caches, tier contents — before measurement starts (2DIO's
  /// point: replayed metrics are wrong unless cache state is realistic).
  /// Warm-up I/O is issued normally but excluded from perf metrics, and the
  /// power window opens at the warm-up boundary. Requests are classified by
  /// submit time. 0 disables warm-up and is bit-identical to not having the
  /// option at all. Must be shorter than the replayed window.
  Seconds warmup_window = 0.0;
  std::uint64_t sensor_seed = 99;  ///< noise seed of the power channel
  /// Invoked at every sampling-cycle boundary during replay (live
  /// monitoring / progress streaming). Runs on the replaying thread.
  std::function<void(const CycleSnapshot&)> on_cycle;
};

struct ReplayReport {
  PerfReport perf;
  Watts avg_watts = 0.0;       ///< measured mean power during replay
  Watts avg_true_watts = 0.0;  ///< ground-truth mean power
  double avg_volts = 0.0;
  double avg_amps = 0.0;
  Joules joules = 0.0;
  EfficiencyMetrics efficiency;
  Seconds replay_duration = 0.0;
  std::uint64_t bunches_replayed = 0;
  std::uint64_t packages_replayed = 0;
  /// Bunches/packages issued inside the warm-up window (excluded from the
  /// perf metrics above; zero when ReplayOptions::warmup_window is 0).
  std::uint64_t warmup_bunches = 0;
  std::uint64_t warmup_packages = 0;
  /// DES events fired while this replay ran; pinned per case by the golden
  /// reports (tests/test_golden_reports.cpp), so a change to the event
  /// schedule shows up here.
  std::uint64_t events_dispatched = 0;
  /// Events scheduled at a time already in the past and clamped to now().
  /// Nonzero means the replayer silently drifted from the trace's timing —
  /// the accuracy benches assert this stays 0.
  std::uint64_t late_schedules = 0;
  std::vector<power::PowerSample> power_series;
};

class ReplayEngine final : private sim::EventTarget, private storage::IoSink {
 public:
  /// The engine owns its simulator: every replay is an isolated experiment
  /// (mirrors one workload-generator machine driving one array).
  explicit ReplayEngine(const ReplayOptions& options = ReplayOptions{});

  /// Replay `source` against `device`. Bunches are read through the
  /// source's selection and timestamps remapped at iteration time; a
  /// window-backed source (ColumnarSource) streams them from disk with
  /// bounded memory, an in-memory TraceView reads them directly — both
  /// produce bit-identical metrics for the same trace (the TraceSource
  /// contract, trace/trace_source.h). Wrap a plain Trace with
  /// TraceView::borrowed.
  ReplayReport replay(const trace::TraceSource& source,
                      storage::BlockDevice& device);

  sim::Simulator& simulator() { return sim_; }

 private:
  /// Schedule bunch `index` of the running replay's source (or mark the
  /// trace exhausted).
  void schedule_bunch(std::size_t index);
  /// Typed event: issue bunch `index`'s packages, then schedule the next.
  void on_event(std::uint64_t index) override;
  /// Routed completion; the tag is 1 for a measured package, 0 for warm-up.
  void on_complete(std::uint64_t measured,
                   const storage::IoCompletion& completion) override;

  /// Build the ReplayReport of a finished replay: perf over the trace
  /// window, channel-0 power statistics, efficiency. Reads
  /// monitor_ and the replay counters; the caller fills the simulator's
  /// counters (events_dispatched, late_schedules).
  ReplayReport assemble_report(const trace::TraceSource& source,
                               power::PowerAnalyzer& analyzer, Seconds end);

  ReplayOptions options_;
  sim::Simulator sim_;
  PerfMonitor monitor_;
  // The running replay's inputs, read by its bunch events.
  const trace::TraceSource* source_ = nullptr;
  storage::BlockDevice* device_ = nullptr;
  Bytes device_capacity_ = 0;
  Seconds warm_end_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::uint64_t packages_in_flight_ = 0;
  std::uint64_t packages_submitted_ = 0;
  std::uint64_t bunches_submitted_ = 0;
  std::uint64_t warmup_packages_ = 0;
  std::uint64_t warmup_bunches_ = 0;
  std::uint64_t max_in_flight_ = 0;  ///< peak queue depth this replay
  bool trace_exhausted_ = false;
};

}  // namespace tracer::core
