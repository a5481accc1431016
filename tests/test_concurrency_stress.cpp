// Deliberately-adversarial concurrency stress (docs/STATIC_ANALYSIS.md).
// Each test hammers a cross-thread interleaving that the locking work in
// this tree must survive: run them under the `tsan` preset and every data
// race here is a build failure, not a flake. On the default preset they
// double as functional regression tests for the same scenarios.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/replay_engine.h"
#include "mixed_trace.h"
#include "net/communicator.h"
#include "obs/registry.h"
#include "power/power_analyzer.h"
#include "storage/disk_array.h"
#include "util/thread_pool.h"

namespace tracer {
namespace {

// Constant-power source whose energy integral tolerates OUT-OF-ORDER
// query times. PowerTimeline demands monotone time (a meter's cursor),
// but this suite's whole point is start() from one thread racing
// sample_at() ticks from another — the two threads' time arguments
// interleave arbitrarily, so the test double must clamp instead of
// throw. All calls arrive under the analyzer's internal lock, so the
// cursor needs no synchronisation of its own.
class StressSource final : public power::PowerSource {
 public:
  explicit StressSource(Watts base) : base_(base) {}
  std::string name() const override { return "stress-array"; }
  Watts power_at(Seconds) const override { return base_; }
  Joules energy_until(Seconds t) override {
    if (t > max_t_) max_t_ = t;
    return base_ * max_t_;
  }

 private:
  Watts base_;
  Seconds max_t_ = 0.0;
};

// Registry snapshots race instrument updates by design (lock-free atomic
// instruments, locked name map); a snapshot taken mid-increment must see a
// value between the start and end counts, never garbage.
TEST(ConcurrencyStress, RegistrySnapshotVsIncrement) {
  auto& reg = obs::Registry::global();
  auto& counter = reg.counter("stress.snapshot.counter");
  const std::uint64_t before =
      reg.snapshot().counter_or("stress.snapshot.counter");

  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 20000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerWriter; ++i) counter.increment();
    });
  }
  // Snapshots also REGISTER new instruments concurrently, so the name-map
  // lock is contended too, not just the instrument atomics.
  std::thread registrar([&] {
    for (int i = 0; i < 50; ++i) {
      reg.counter("stress.snapshot.registrar." + std::to_string(i))
          .increment();
    }
  });
  go.store(true, std::memory_order_release);
  std::uint64_t last_seen = before;
  for (int i = 0; i < 200; ++i) {
    const auto snap = reg.snapshot();
    const std::uint64_t seen =
        snap.counter_or("stress.snapshot.counter", before);
    EXPECT_GE(seen, last_seen);  // monotone under concurrent increments
    last_seen = seen;
  }
  for (auto& t : writers) t.join();
  registrar.join();
  const auto final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counter_or("stress.snapshot.counter"),
            before + kWriters * kPerWriter);
}

// Transport reset while a call() is in flight across threads: the client
// retries over a fresh channel pair served by a live server thread, and
// the dedup/reconnect machinery keeps the RPC exactly-once.
TEST(ConcurrencyStress, CommunicatorResetDuringCall) {
  for (int round = 0; round < 20; ++round) {
    auto [dead_client, dead_server] = net::make_channel();
    net::Communicator client(std::move(dead_client));
    // Kill the first transport from another thread while the call's first
    // attempt may already be waiting on it.
    std::thread killer([end = std::move(dead_server)]() mutable {
      end.close();
    });

    auto [fresh_client, fresh_server] = net::make_channel();
    net::Communicator server(std::move(fresh_server));
    std::atomic<bool> serve_done{false};
    std::thread service([&] {
      auto request = server.recv(5.0);
      if (request) server.reply(*request, net::make_ack(0));
      serve_done.store(true, std::memory_order_release);
    });

    net::Message command;
    command.type = net::MessageType::kConfigureTest;
    net::CallOptions options;
    options.attempt_timeout = 0.2;
    options.max_attempts = 5;
    bool reconnected = false;
    options.on_attempt_failure = [&](int) {
      if (!reconnected) {
        client.reset(std::move(fresh_client));
        reconnected = true;
      }
      return true;
    };
    const auto reply = client.call(std::move(command), options);
    killer.join();
    service.join();
    ASSERT_TRUE(reply.has_value()) << "round " << round;
    EXPECT_EQ(reply->type, net::MessageType::kAck);
    EXPECT_TRUE(serve_done.load());
  }
}

// One thread ticks sample_at while another re-opens the window with
// start(): nothing may tear, and a window opened after the race is clean.
TEST(ConcurrencyStress, PowerAnalyzerStartVsTick) {
  StressSource source(100.0);
  power::PowerAnalyzer analyzer(/*cycle=*/0.01);
  analyzer.add_channel(source);
  analyzer.start(0.0);

  std::atomic<bool> done{false};
  std::thread ticker([&] {
    Seconds t = 0.0;
    while (!done.load(std::memory_order_acquire)) {
      t += 0.01;
      analyzer.sample_at(t);  // behind a restarted window: skipped
    }
  });
  for (int i = 0; i < 200; ++i) {
    analyzer.start(static_cast<double>(i));
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  ticker.join();

  // A window opened past every racing tick holds only its own sample.
  analyzer.start(1e6);
  analyzer.sample_at(1e6 + 1.0);
  EXPECT_EQ(analyzer.report(0).samples.size(), 1u);
  EXPECT_EQ(analyzer.report(0).true_joules, 100.0);
}

// ThreadPool construction/teardown churn with submitters racing shutdown:
// the stop latch and queue must stay coherent through rapid lifecycles.
TEST(ConcurrencyStress, ThreadPoolShutdownChurn) {
  std::atomic<std::uint64_t> executed{0};
  for (int round = 0; round < 50; ++round) {
    util::ThreadPool pool(2);
    std::vector<std::thread> submitters;
    for (int s = 0; s < 3; ++s) {
      submitters.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          pool.submit(
              [&] { executed.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (auto& t : submitters) t.join();
    // Pool destructor runs here with up to 60 queued tasks: shutdown must
    // drain them all, not drop them.
  }
  EXPECT_EQ(executed.load(), 50u * 3u * 20u);
}

// Four replays at once, each on its own ReplayEngine + DiskArray, the way
// campaign executors run: the obs registry is shared, the simulations are
// not. Each report must be the same bits as the same replay run alone.
TEST(ConcurrencyStress, ConcurrentReplaysMatchSerial) {
  auto replay = [](std::size_t r) {
    const storage::ArrayConfig config =
        r % 2 == 0 ? storage::ArrayConfig::hdd_testbed(6)
                   : storage::ArrayConfig::ssd_testbed(4);
    core::ReplayEngine engine;
    storage::DiskArray array(engine.simulator(), config);
    const trace::Trace trace = test_support::mixed_trace(300, 100 + r);
    return engine.replay(trace::TraceView::borrowed(trace), array);
  };

  std::vector<core::ReplayReport> concurrent(4);
  {
    std::vector<std::thread> replayers;
    for (std::size_t r = 0; r < concurrent.size(); ++r) {
      replayers.emplace_back([&, r] { concurrent[r] = replay(r); });
    }
    for (auto& t : replayers) t.join();
  }
  for (std::size_t r = 0; r < concurrent.size(); ++r) {
    SCOPED_TRACE(r);
    const core::ReplayReport serial = replay(r);
    const core::ReplayReport& report = concurrent[r];
    EXPECT_GT(report.perf.completions, 0u);
    EXPECT_EQ(report.late_schedules, 0u);
    EXPECT_EQ(report.perf.completions, serial.perf.completions);
    EXPECT_EQ(report.perf.bytes, serial.perf.bytes);
    EXPECT_EQ(report.perf.avg_response_ms, serial.perf.avg_response_ms);
    EXPECT_EQ(report.perf.p95_response_ms, serial.perf.p95_response_ms);
    EXPECT_EQ(report.perf.max_response_ms, serial.perf.max_response_ms);
    EXPECT_EQ(report.perf.iops_series, serial.perf.iops_series);
    EXPECT_EQ(report.avg_watts, serial.avg_watts);
    EXPECT_EQ(report.joules, serial.joules);
    EXPECT_EQ(report.replay_duration, serial.replay_duration);
    EXPECT_EQ(report.events_dispatched, serial.events_dispatched);
    ASSERT_EQ(report.power_series.size(), serial.power_series.size());
    for (std::size_t i = 0; i < report.power_series.size(); ++i) {
      EXPECT_EQ(report.power_series[i].watts, serial.power_series[i].watts);
    }
  }
}

}  // namespace
}  // namespace tracer
