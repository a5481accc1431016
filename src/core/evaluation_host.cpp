#include "core/evaluation_host.h"

#include <chrono>
#include <ctime>

#include "core/proportional_filter.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/logging.h"
#include "workload/synthetic_generator.h"

namespace tracer::core {

namespace {
std::string now_iso8601() {
  // The one sanctioned wall-clock read in the tree: TestRecord::timestamp
  // is a human-readable label, never an input to timer or simulation
  // arithmetic (util/clock.h spells out the contract).
  const auto now = std::chrono::system_clock::now();  // NOLINT(tracer-no-wallclock): human-readable record label only; never subtracted
  const std::time_t t = std::chrono::system_clock::to_time_t(now);  // NOLINT(tracer-no-wallclock): converting the label above, not reading time

  char buffer[32];
  std::tm tm_utc{};
  gmtime_r(&t, &tm_utc);
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buffer;
}
}  // namespace

EvaluationHost::EvaluationHost(const storage::ArrayConfig& array,
                               std::filesystem::path repository_dir,
                               EvaluationOptions options)
    : array_(array),
      repository_(std::move(repository_dir)),
      options_(options) {}

trace::Trace EvaluationHost::build_peak_trace(
    const trace::TraceKey& key, const workload::WorkloadMode& mode) {
  TRACER_SPAN("host.generate");
  auto& reg = obs::Registry::global();
  static auto& gen_us = reg.counter("host.phase.generate.us");
  static auto& gen_calls = reg.counter("host.phase.generate.calls");
  obs::ScopedTimer timer(gen_us, gen_calls);
  if (repository_.contains(key)) return repository_.load(key);
  // Independent keys may collect in parallel; the per-key future in
  // peak_trace_shared already serialises same-key builds, and the store is
  // idempotent (same mode -> same deterministic trace).
  sim::Simulator sim;
  storage::DiskArray array(sim, array_);
  workload::SyntheticParams params = workload::SyntheticParams::from_mode(
      mode, options_.collection_duration,
      options_.seed ^ (static_cast<std::uint64_t>(key.random_pct) << 32 |
                       static_cast<std::uint64_t>(key.read_pct) << 16 |
                       mode.request_size));
  workload::SyntheticGenerator generator(sim, array, params);
  workload::GeneratorResult result = generator.run();
  result.trace.device = array_.name;
  TRACER_LOG(kInfo) << "collected peak trace " << key.file_name() << ": "
                    << result.trace.bunch_count() << " bunches, "
                    << result.requests << " requests, "
                    << result.achieved_iops << " IOPS";
  if (!repository_.contains(key)) repository_.store(key, result.trace);
  return result.trace;
}

std::shared_ptr<const trace::Trace> EvaluationHost::peak_trace_shared(
    const workload::WorkloadMode& mode) {
  const trace::TraceKey key = mode.trace_key(array_.name);
  const std::string cache_key = key.file_name();

  std::shared_future<SharedTrace> future;
  std::promise<SharedTrace> promise;
  bool builder = false;
  {
    util::MutexLock lock(cache_mutex_);
    auto it = peak_cache_.find(cache_key);
    if (it == peak_cache_.end()) {
      builder = true;
      future = promise.get_future().share();
      peak_cache_.emplace(cache_key, future);
    } else {
      future = it->second;
    }
  }
  {
    auto& reg = obs::Registry::global();
    static auto& hits = reg.counter("host.peak_cache.hits");
    static auto& misses = reg.counter("host.peak_cache.misses");
    (builder ? misses : hits).increment();
  }
  if (builder) {
    // Build outside the lock so distinct keys still collect in parallel.
    try {
      auto built = std::make_shared<const trace::Trace>(
          build_peak_trace(key, mode));
      peak_builds_.fetch_add(1, std::memory_order_relaxed);
      static auto& builds =
          obs::Registry::global().counter("host.peak_cache.builds");
      builds.increment();
      promise.set_value(std::move(built));
    } catch (...) {
      // Evict first so a later call can retry; waiters holding this future
      // still observe the exception. Nothing else removes an entry, so the
      // key still holds this build's own.
      {
        util::MutexLock lock(cache_mutex_);
        peak_cache_.erase(cache_key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

TestResult EvaluationHost::replay_filtered(
    std::shared_ptr<const trace::TraceSource> peak,
    const std::string& trace_name, const workload::WorkloadMode& mode) {
  auto& reg = obs::Registry::global();
  static auto& filter_us = reg.counter("host.phase.filter.us");
  static auto& filter_calls = reg.counter("host.phase.filter.calls");
  static auto& replay_us = reg.counter("host.phase.replay.us");
  static auto& replay_calls = reg.counter("host.phase.replay.calls");
  static auto& measure_us = reg.counter("host.phase.measure.us");
  static auto& measure_calls = reg.counter("host.phase.measure.calls");

  const std::shared_ptr<const trace::TraceSource> filtered = [&] {
    TRACER_SPAN("host.filter");
    obs::ScopedTimer timer(filter_us, filter_calls);
    return mode.load_proportion >= 1.0
               ? peak
               : ProportionalFilter::apply(peak, mode.load_proportion);
  }();

  ReplayOptions replay_options;
  replay_options.sampling_cycle = options_.sampling_cycle;
  replay_options.sensor_seed = options_.seed ^ 0x9e3779b9ULL;
  replay_options.on_cycle = options_.on_cycle;
  ReplayEngine engine(replay_options);
  storage::ArrayConfig config = array_;
  storage::DiskArray array(engine.simulator(), config);

  ReplayReport report = [&] {
    TRACER_SPAN("host.replay");
    obs::ScopedTimer timer(replay_us, replay_calls);
    return engine.replay(*filtered, array);
  }();

  TRACER_SPAN("host.measure");
  obs::ScopedTimer measure_timer(measure_us, measure_calls);
  TestResult result;
  result.record.timestamp = now_iso8601();
  result.record.device = array_.name;
  result.record.trace_name = trace_name;
  result.record.request_size = mode.request_size;
  result.record.random_ratio = mode.random_ratio;
  result.record.read_ratio = mode.read_ratio;
  result.record.load_proportion = mode.load_proportion;
  result.record.iops = report.perf.iops;
  result.record.mbps = report.perf.mbps;
  result.record.avg_response_ms = report.perf.avg_response_ms;
  result.record.avg_amps = report.avg_amps;
  result.record.avg_volts = report.avg_volts;
  result.record.avg_watts = report.avg_watts;
  result.record.joules = report.joules;
  result.record.iops_per_watt = report.efficiency.iops_per_watt;
  result.record.mbps_per_kilowatt = report.efficiency.mbps_per_kilowatt;
  TRACER_LOG(kInfo) << "test [" << trace_name
                    << " @ " << mode.load_proportion * 100 << "%]: "
                    << result.record.iops << " IOPS, "
                    << result.record.avg_watts << " W, "
                    << result.record.iops_per_watt << " IOPS/W";
  result.report = std::move(report);
  return result;
}

TestResult EvaluationHost::run_test(const workload::WorkloadMode& mode) {
  // Shared immutable peak trace: all load levels of this mode replay views
  // over one cached instance instead of each regenerating/copying it.
  auto peak = trace::make_source(trace::TraceView(peak_trace_shared(mode)));
  return replay_filtered(std::move(peak),
                         mode.trace_key(array_.name).file_name(), mode);
}

TestResult EvaluationHost::run_source(
    std::shared_ptr<const trace::TraceSource> source,
    const std::string& trace_name, double load_proportion) {
  if (source == nullptr) {
    throw std::invalid_argument("EvaluationHost: null trace source");
  }
  workload::WorkloadMode mode;
  mode.request_size = static_cast<Bytes>(source->mean_request_size());
  mode.read_ratio = source->read_ratio();
  mode.random_ratio = 0.0;  // unknown for external traces
  mode.load_proportion = load_proportion;
  return replay_filtered(std::move(source), trace_name, mode);
}

}  // namespace tracer::core
