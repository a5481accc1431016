// Multi-channel power analyzer (§III-A3).
//
// Each channel clamps a HallSensor around one PowerSource and takes one
// reading per sampling cycle (default 1 s, configurable like the paper's
// GUI parameter). Channels are sampled in lock-step so multiple storage
// systems can be tested simultaneously, mirroring the KS706's multi-channel
// operation and the Fig 3 distributed deployment.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "power/hall_sensor.h"
#include "power/power_source.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/sync.h"

namespace tracer::power {

/// Everything recorded for one channel over a test run.
struct ChannelReport {
  std::string name;
  std::vector<PowerSample> samples;

  /// Mean measured power across samples (what the paper reports as "power
  /// data" in each database record).
  Watts mean_watts() const;
  /// Mean true power (for instrument-error analysis in tests).
  Watts mean_true_watts() const;
  /// Measured energy = sum(sample watts * cycle).
  Joules measured_joules(Seconds cycle) const;
  Joules true_joules = 0.0;
};

class PowerAnalyzer {
 public:
  /// cycle: sampling period in seconds (paper default 1 s).
  explicit PowerAnalyzer(Seconds cycle = 1.0,
                         HallSensorParams sensor = HallSensorParams{},
                         std::uint64_t seed = 1);

  PowerAnalyzer(const PowerAnalyzer&) = delete;
  PowerAnalyzer& operator=(const PowerAnalyzer&) = delete;

  Seconds cycle() const { return cycle_; }

  /// Register a source; returns the channel index. The source must outlive
  /// the analyzer. Each channel gets an independently miscalibrated sensor.
  std::size_t add_channel(PowerSource& source);

  /// Begin measuring at absolute time t (first cycle ends at t + cycle).
  /// Always opens a clean window: prior samples and energy baselines are
  /// discarded.
  void start(Seconds t);

  /// Take one reading on every channel for the cycle ending at time t.
  /// Throws if the analyzer was never started.
  void sample_at(Seconds t);

  /// Convenience: schedule per-cycle sampling events on `sim` over
  /// [t_start, t_end]. The caller still runs the simulator.
  void schedule_sampling(sim::Simulator& sim, Seconds t_start, Seconds t_end);

  /// Reference into this analyzer's channel state. Stable only while no
  /// sample_at runs (it appends to the vector behind the reference): read
  /// reports after the last sample.
  const ChannelReport& report(std::size_t channel) const;

 private:
  struct Channel {
    PowerSource* source;
    HallSensor sensor;
    ChannelReport report;
    Joules energy_at_start = 0.0;
    Joules last_energy = 0.0;
  };

  Seconds cycle_;  ///< immutable after construction
  HallSensorParams sensor_params_;  ///< immutable after construction
  /// Window state below is guarded: the loop that ticks sample_at and the
  /// caller that opens a window with start() may be different threads, so
  /// a start() racing a tick must serialise with it.
  mutable util::Mutex mutex_;
  util::Rng seed_rng_ TRACER_GUARDED_BY(mutex_);
  Seconds started_at_ TRACER_GUARDED_BY(mutex_) = 0.0;
  Seconds last_sample_ TRACER_GUARDED_BY(mutex_) = 0.0;
  bool running_ TRACER_GUARDED_BY(mutex_) = false;
  std::vector<Channel> channels_ TRACER_GUARDED_BY(mutex_);
};

}  // namespace tracer::power
