#include "core/realtime_replayer.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/span.h"

namespace tracer::core {

namespace {
using Clock = std::chrono::steady_clock;

Seconds since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

SyntheticRealtimeTarget::SyntheticRealtimeTarget(
    std::function<Seconds(const storage::IoRequest&)> latency_model)
    : latency_model_(std::move(latency_model)),
      worker_([this] { worker_loop(); }) {}

SyntheticRealtimeTarget::~SyntheticRealtimeTarget() {
  {
    // Store under the mutex: a worker past its predicate check but not yet
    // inside wait() holds the lock, so it cannot miss this notify.
    util::MutexLock lock(mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  worker_.join();
}

void SyntheticRealtimeTarget::submit(const storage::IoRequest& request,
                                     Seconds /*issue_time*/,
                                     std::function<void(Seconds)> done) {
  Job job{latency_model_(request), std::move(done)};
  {
    util::MutexLock lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void SyntheticRealtimeTarget::worker_loop() {
  while (true) {
    Job job;
    {
      util::MutexLock lock(mutex_);
      while (!stopping_.load(std::memory_order_relaxed) && jobs_.empty()) {
        cv_.wait(lock);
      }
      // Stopping still drains queued jobs: their `done` callbacks write
      // into a replay() stack frame that is waiting on them.
      if (jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    if (job.latency > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(job.latency));
    }
    job.done(job.latency);
  }
}

RealtimeReport RealtimeReplayer::replay(const trace::TraceSource& source,
                                        RealtimeTarget& target) {
  if (source.empty()) {
    throw std::invalid_argument("RealtimeReplayer: empty trace");
  }
  TRACER_SPAN("realtime.replay");
  std::uint64_t max_outstanding = 0;

  struct Completion {
    Seconds latency;
    Bytes bytes;
  };
  util::SpscQueue<Completion> completions(1 << 16);
  std::atomic<std::uint64_t> outstanding{0};

  RealtimeReport report;
  const Clock::time_point start = Clock::now();
  std::uint64_t next_id = 1;
  double max_skew = 0.0;

  for (std::size_t i = 0; i < source.bunch_count(); ++i) {
    if (cancel_.cancelled()) {
      report.stopped = true;
      break;
    }
    const Seconds scheduled = source.timestamp(i);
    // Sleep toward the bunch's deadline in <=10 ms slices so a cancel
    // during a long inter-arrival gap takes effect promptly instead of
    // after the gap. The final slice lands on the deadline, so timing
    // skew for uncancelled replays is unchanged.
    constexpr Seconds kCancelSlice = 10e-3;
    for (Seconds ahead = scheduled - since(start); ahead > 0.0;
         ahead = scheduled - since(start)) {
      if (cancel_.cancelled()) break;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(ahead, kCancelSlice)));
    }
    if (cancel_.cancelled()) {
      report.stopped = true;
      break;
    }
    max_skew = std::max(max_skew, std::abs(since(start) - scheduled));
    for (const auto& pkg : source.packages(i)) {
      storage::IoRequest request;
      request.id = next_id++;
      request.sector = pkg.sector;
      request.bytes = pkg.bytes;
      request.op = pkg.op;
      max_outstanding = std::max(
          max_outstanding, outstanding.fetch_add(1, std::memory_order_relaxed) + 1);
      const Bytes bytes = pkg.bytes;
      target.submit(request, since(start),
                    [&completions, &outstanding, bytes](Seconds latency) {
                      // The SPSC producer is the target's completion thread.
                      while (!completions.try_push(Completion{latency, bytes})) {
                        std::this_thread::yield();
                      }
                      outstanding.fetch_sub(1, std::memory_order_release);
                    });
      ++report.packages;
      report.bytes += pkg.bytes;
    }
    // Drain completions opportunistically to bound queue occupancy.
    while (auto completion = completions.try_pop()) {
      report.avg_latency_ms += completion->latency * 1e3;
    }
  }

  // Wait for stragglers without pegging a core: a few polite yields for
  // the fast path, then bounded exponential sleep (capped at 1 ms so the
  // final completion is never missed by much). Keep draining completions
  // while waiting so the queue cannot wedge full under a large backlog.
  std::size_t spins = 0;
  Seconds backoff = 50e-6;
  while (outstanding.load(std::memory_order_acquire) > 0) {
    while (auto completion = completions.try_pop()) {
      report.avg_latency_ms += completion->latency * 1e3;
    }
    if (outstanding.load(std::memory_order_acquire) == 0) break;
    if (spins < 64) {
      ++spins;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, 1e-3);
    }
  }
  while (auto completion = completions.try_pop()) {
    report.avg_latency_ms += completion->latency * 1e3;
  }

  report.wall_duration = since(start);
  if (report.packages > 0) {
    report.avg_latency_ms /= static_cast<double>(report.packages);
  }
  if (report.wall_duration > 0.0) {
    report.iops = static_cast<double>(report.packages) / report.wall_duration;
    report.mbps =
        static_cast<double>(report.bytes) / report.wall_duration / 1.0e6;
  }
  report.max_timing_error_ms = max_skew * 1e3;

  // One registry touch per replay, after the issuing loop is done.
  {
    auto& reg = obs::Registry::global();
    static auto& runs = reg.counter("realtime.runs");
    static auto& bunches = reg.counter("realtime.bunches");
    static auto& packages = reg.counter("realtime.packages");
    static auto& depth = reg.gauge("realtime.max_outstanding");
    static auto& skew = reg.gauge("realtime.max_skew_ms");
    static auto& cancelled = reg.counter("realtime.cancelled");
    if (report.stopped) cancelled.increment();
    runs.increment();
    bunches.add(source.bunch_count());
    packages.add(report.packages);
    depth.update_max(static_cast<double>(max_outstanding));
    skew.update_max(report.max_timing_error_ms);
  }
  return report;
}

}  // namespace tracer::core
