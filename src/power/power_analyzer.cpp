#include "power/power_analyzer.h"

#include <cmath>
#include <stdexcept>

#include "obs/registry.h"

namespace tracer::power {

Watts ChannelReport::mean_watts() const {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : samples) sum += s.watts;
  return sum / static_cast<double>(samples.size());
}

Watts ChannelReport::mean_true_watts() const {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& s : samples) sum += s.true_watts;
  return sum / static_cast<double>(samples.size());
}

Joules ChannelReport::measured_joules(Seconds cycle) const {
  double sum = 0.0;
  for (const auto& s : samples) sum += s.watts * cycle;
  return sum;
}

PowerAnalyzer::PowerAnalyzer(Seconds cycle, HallSensorParams sensor,
                             std::uint64_t seed)
    : cycle_(cycle), sensor_params_(sensor), seed_rng_(seed) {
  if (!(cycle > 0.0)) {
    throw std::invalid_argument("PowerAnalyzer: cycle must be > 0");
  }
}

std::size_t PowerAnalyzer::add_channel(PowerSource& source) {
  util::MutexLock lock(mutex_);
  if (running_) {
    throw std::logic_error("PowerAnalyzer: cannot add channels mid-run");
  }
  Channel channel{&source, HallSensor(sensor_params_, seed_rng_.split()),
                  ChannelReport{}, 0.0, 0.0};
  channel.report.name = source.name();
  channels_.push_back(std::move(channel));
  return channels_.size() - 1;
}

void PowerAnalyzer::start(Seconds t) {
  util::MutexLock lock(mutex_);
  started_at_ = t;
  last_sample_ = t;
  running_ = true;
  for (auto& channel : channels_) {
    channel.energy_at_start = channel.source->energy_until(t);
    channel.last_energy = channel.energy_at_start;
    channel.report.samples.clear();
    channel.report.true_joules = 0.0;
  }
}

void PowerAnalyzer::sample_at(Seconds t) {
  util::MutexLock lock(mutex_);
  if (!running_) {
    throw std::logic_error("PowerAnalyzer: sample_at before start");
  }
  const Seconds dt = t - last_sample_;
  if (!(dt > 0.0)) return;  // duplicate boundary; nothing to integrate
  static auto& samples = obs::Registry::global().counter("power.samples");
  samples.add(channels_.size());
  for (auto& channel : channels_) {
    const Joules energy = channel.source->energy_until(t);
    const Watts true_avg = (energy - channel.last_energy) / dt;
    channel.last_energy = energy;
    channel.report.true_joules = energy - channel.energy_at_start;
    channel.report.samples.push_back(channel.sensor.measure(t, true_avg));
  }
  last_sample_ = t;
}

void PowerAnalyzer::schedule_sampling(sim::Simulator& sim, Seconds t_start,
                                      Seconds t_end) {
  sim.schedule_at(t_start, [this, t_start] { start(t_start); });
  // Epsilon-tolerant: when the window is an exact multiple of the cycle,
  // FP division can land just below the integer (0.7 / 0.1 == 6.999...)
  // and a bare floor would drop the sample at t_end.
  const auto cycles = static_cast<std::uint64_t>(
      std::floor((t_end - t_start) / cycle_ + 1e-9));
  for (std::uint64_t i = 1; i <= cycles; ++i) {
    const Seconds t = t_start + static_cast<double>(i) * cycle_;
    sim.schedule_at(t, [this, t] { sample_at(t); });
  }
}

const ChannelReport& PowerAnalyzer::report(std::size_t channel) const {
  // The returned reference outlives the lock; see the header contract
  // (reports are read after the last sample, never while one is taken).
  util::MutexLock lock(mutex_);
  return channels_.at(channel).report;
}

}  // namespace tracer::power
