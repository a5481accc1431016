#include "core/replay_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/span.h"

namespace tracer::core {

ReplayEngine::ReplayEngine(const ReplayOptions& options)
    : options_(options), monitor_(options.sampling_cycle) {
  if (!(options_.sampling_cycle > 0.0)) {
    throw std::invalid_argument("ReplayEngine: bad sampling cycle");
  }
  if (options_.warmup_window < 0.0) {
    throw std::invalid_argument("ReplayEngine: negative warmup_window");
  }
}

Sector wrap_sector(Sector sector, Bytes bytes, Bytes capacity) {
  const Sector capacity_sectors = capacity / kSectorSize;
  const Sector request_sectors =
      std::max<Sector>(1, (bytes + kSectorSize - 1) / kSectorSize);
  if (capacity_sectors < request_sectors) {
    throw std::invalid_argument("replay: request larger than device");
  }
  // Valid start sectors form the inclusive range
  // [0, capacity_sectors - request_sectors], so the modulus is usable + 1;
  // a request that exactly fills the device always starts at 0. A sector
  // already in range is its own residue, so it skips the division.
  const Sector usable = capacity_sectors - request_sectors;
  return sector <= usable ? sector : sector % (usable + 1);
}

void ReplayEngine::schedule_bunch(std::size_t index) {
  if (index >= source_->bunch_count()) {
    trace_exhausted_ = true;
    return;
  }
  sim_.schedule_at(source_->timestamp(index), *this, index);
}

void ReplayEngine::on_event(std::uint64_t index) {
  // Warm-up bunches populate device state (caches, tiers) but stay out of
  // the perf metrics; classification is by submit time (the hdd_warmup
  // golden report pins it). With warmup_window == 0 this is always true.
  const bool measured = !(sim_.now() < warm_end_);
  if (measured) {
    ++bunches_submitted_;
  } else {
    ++warmup_bunches_;
  }
  // Concurrent packages of a bunch are submitted in parallel (§IV-A).
  // For a window-backed source this is the only packages() call for
  // this index, strictly in order — the sliding-window contract.
  const auto bunch = static_cast<std::size_t>(index);
  for (const auto& pkg : source_->packages(bunch)) {
    storage::IoRequest request;
    request.id = next_id_++;
    request.sector = wrap_sector(pkg.sector, pkg.bytes, device_capacity_);
    request.bytes = pkg.bytes;
    request.op = pkg.op;
    ++packages_in_flight_;
    if (measured) {
      ++packages_submitted_;
    } else {
      ++warmup_packages_;
    }
    max_in_flight_ = std::max(max_in_flight_, packages_in_flight_);
    device_->submit(request, storage::CompletionCallback(*this, measured));
  }
  schedule_bunch(bunch + 1);
}

void ReplayEngine::on_complete(std::uint64_t measured,
                               const storage::IoCompletion& completion) {
  --packages_in_flight_;
  if (measured != 0) monitor_.on_complete(completion);
}

ReplayReport ReplayEngine::replay(const trace::TraceSource& source,
                                  storage::BlockDevice& device) {
  if (source.empty()) {
    throw std::invalid_argument("ReplayEngine: empty trace");
  }
  TRACER_SPAN("replay.run");
  monitor_.reset();
  packages_in_flight_ = 0;
  packages_submitted_ = 0;
  bunches_submitted_ = 0;
  warmup_packages_ = 0;
  warmup_bunches_ = 0;
  max_in_flight_ = 0;
  trace_exhausted_ = false;
  const std::uint64_t events_before = sim_.events_dispatched();
  const std::uint64_t late_before = sim_.late_schedule_count();

  if (options_.warmup_window > 0.0 &&
      options_.warmup_window >= source.duration()) {
    throw std::invalid_argument(
        "ReplayEngine: warmup_window must be shorter than the replayed "
        "window");
  }
  // Measurement opens at the warm-up boundary; with warmup_window == 0 this
  // is sim_.now() and the whole path below is identical to a warmup-free
  // replay.
  const Seconds warm_end = sim_.now() + options_.warmup_window;
  source_ = &source;
  device_ = &device;
  device_capacity_ = device.capacity();
  warm_end_ = warm_end;

  power::PowerAnalyzer analyzer(options_.sampling_cycle,
                                power::HallSensorParams{},
                                options_.sensor_seed);
  analyzer.add_channel(device);
  if (options_.warmup_window > 0.0) {
    // Re-starting at the boundary zeroes the channel's energy baseline,
    // so joules/avg_watts cover only the measured window.
    sim_.schedule_at(warm_end,
                     [&analyzer, warm_end] { analyzer.start(warm_end); });
  } else {
    analyzer.start(sim_.now());
  }

  // Self-perpetuating sampler: keeps metering until the replay has drained.
  // Stored in a struct so the lambda can reschedule itself.
  struct Sampler {
    ReplayEngine* engine;
    power::PowerAnalyzer* analyzer;
    Seconds cycle;
    std::uint64_t last_completions = 0;
    Bytes last_bytes = 0;
    void arm(Seconds at) {
      auto tick = [this, at] {
        analyzer->sample_at(at);
        if (engine->options_.on_cycle) {
          const auto& samples = analyzer->report(0).samples;
          CycleSnapshot snapshot;
          snapshot.time = at;
          snapshot.completions = engine->monitor_.completions();
          snapshot.in_flight = engine->packages_in_flight_;
          snapshot.iops =
              static_cast<double>(snapshot.completions - last_completions) /
              cycle;
          snapshot.mbps = static_cast<double>(engine->monitor_.bytes() -
                                              last_bytes) /
                          cycle / 1.0e6;
          snapshot.watts = samples.empty() ? 0.0 : samples.back().watts;
          last_completions = snapshot.completions;
          last_bytes = engine->monitor_.bytes();
          engine->options_.on_cycle(snapshot);
        }
        if (!engine->trace_exhausted_ || engine->packages_in_flight_ > 0) {
          arm(at + cycle);
        }
      };
      static_assert(sim::Simulator::Action::fits_inline<decltype(tick)>);
      engine->sim_.schedule_at(at, std::move(tick));
    }
  };
  Sampler sampler{this, &analyzer, options_.sampling_cycle, 0, 0};
  sampler.arm(warm_end + options_.sampling_cycle);

  // Steady state keeps one bunch event, one sampler event, and the in-
  // flight completions queued; reserve the device's own worst-case estimate
  // so scheduling never reallocates mid-replay (the capacity-stability
  // regression test replays twice and asserts no growth).
  sim_.reserve(std::max<std::size_t>(256, device.max_concurrent_events() + 64));
  schedule_bunch(0);
  sim_.run();

  const Seconds end = sim_.now();
  // Take the final (possibly partial) cycle so energy totals are complete.
  analyzer.sample_at(end);

  ReplayReport report = assemble_report(source, analyzer, end);
  report.events_dispatched = sim_.events_dispatched() - events_before;
  report.late_schedules = sim_.late_schedule_count() - late_before;

  // Registry counters are bumped once per replay (never per event), so the
  // DES hot loop touches no shared state. Handles are cached in statics:
  // after the first replay this is five relaxed atomic adds.
  {
    auto& reg = obs::Registry::global();
    static auto& runs = reg.counter("replay.runs");
    static auto& bunches = reg.counter("replay.bunches");
    static auto& packages = reg.counter("replay.packages");
    static auto& events = reg.counter("replay.events_scheduled");
    static auto& late = reg.counter("replay.events_late");
    static auto& warmup = reg.counter("replay.warmup_packages");
    static auto& depth = reg.gauge("replay.max_in_flight");
    runs.increment();
    bunches.add(bunches_submitted_ + warmup_bunches_);
    packages.add(packages_submitted_ + warmup_packages_);
    warmup.add(warmup_packages_);
    events.add(sim_.events_dispatched() - events_before);
    late.add(sim_.late_schedule_count() - late_before);
    depth.update_max(static_cast<double>(max_in_flight_));
  }
  return report;
}

ReplayReport ReplayEngine::assemble_report(const trace::TraceSource& source,
                                           power::PowerAnalyzer& analyzer,
                                           Seconds end) {
  ReplayReport report;
  report.replay_duration = end;
  report.bunches_replayed = bunches_submitted_;
  report.packages_replayed = packages_submitted_;
  report.warmup_bunches = warmup_bunches_;
  report.warmup_packages = warmup_packages_;
  // Rates are computed over the trace's own window (filtering preserves
  // timestamps, so original and manipulated traces share this window);
  // completions that drain past the window still count. Using the drain-
  // inclusive end instead would deflate T(f) at saturation and corrupt the
  // eq. 1 load proportions. The warm-up prefix is not part of the measured
  // window (its completions were never fed to the monitor).
  const Seconds trace_window =
      std::max(source.duration() - options_.warmup_window,
               options_.sampling_cycle);
  report.perf = monitor_.report(trace_window);

  const auto& channel = analyzer.report(0);
  report.avg_watts = channel.mean_watts();
  report.avg_true_watts = channel.mean_true_watts();
  report.joules = channel.true_joules;
  if (!channel.samples.empty()) {
    for (const auto& s : channel.samples) {
      report.avg_volts += s.volts;
      report.avg_amps += s.amps;
    }
    report.avg_volts /= static_cast<double>(channel.samples.size());
    report.avg_amps /= static_cast<double>(channel.samples.size());
  }
  report.power_series = channel.samples;
  if (report.avg_watts > 0.0) {
    report.efficiency = compute_efficiency(report.perf.iops, report.perf.mbps,
                                           report.avg_watts);
  }
  return report;
}

}  // namespace tracer::core
