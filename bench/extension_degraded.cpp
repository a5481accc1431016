// Extension: reliability-axis service quality — the metric the PARAID row
// of the paper's Table I adds to the usual pair. The same random-read
// workload runs against the healthy array, the degraded array (one member
// failed), and the array during an aggressive rebuild; the harness reports
// throughput-normalised response time and power for each state.
//
// Expected shape: degraded reads pay reconstruction fan-out; rebuild adds
// contention on top; power rises with the extra member activity.
#include "bench_common.h"

#include "storage/callback_sink.h"
#include "storage/disk_array.h"
#include "storage/rebuild.h"
#include "util/rng.h"

namespace {

using namespace tracer;

struct Outcome {
  double avg_response_ms = 0.0;
  double avg_watts = 0.0;
  double rebuild_progress = 0.0;
};

enum class State { kHealthy, kDegraded, kRebuilding };

Outcome run(State state) {
  sim::Simulator sim;
  storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
  if (state != State::kHealthy) array.controller().fail_disk(2);

  std::unique_ptr<storage::RebuildProcess> rebuild;
  if (state == State::kRebuilding) {
    storage::RebuildParams params;
    params.chunk = kMiB;
    params.throttle_mbps = 300.0;  // aggressive rebuild
    params.limit_bytes = 512 * kMiB;
    rebuild = std::make_unique<storage::RebuildProcess>(
        sim, array.controller(), params);
    rebuild->start();
  }

  util::Rng rng(53);
  const Sector span = array.capacity() / kSectorSize - 256;
  double total_latency = 0.0;
  std::uint64_t completions = 0;
  storage::CallbackSink done;
  const Seconds duration = 20.0;
  Seconds t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / 60.0);  // 60 IOPS foreground
    if (t >= duration) break;
    const Sector sector = rng.below(span / 32) * 32;
    sim.schedule_at(t, [&, sector] {
      array.submit(storage::IoRequest{1, sector, 16 * kKiB, OpType::kRead},
                   done.bind([&](const storage::IoCompletion& c) {
                     total_latency += c.latency();
                     ++completions;
                   }));
    });
  }
  sim.run_until(duration);

  Outcome outcome;
  outcome.avg_response_ms =
      completions ? total_latency / completions * 1e3 : 0.0;
  outcome.avg_watts = array.energy_until(duration) / duration;
  outcome.rebuild_progress = rebuild ? rebuild->progress() : 0.0;
  sim.run();  // drain
  return outcome;
}

}  // namespace

int main() {
  using namespace tracer;
  bench::print_header(
      "Extension — degraded-mode and rebuild service quality",
      "reconstruction fan-out raises response time and power; rebuild "
      "contention stacks on top");

  const Outcome healthy = run(State::kHealthy);
  const Outcome degraded = run(State::kDegraded);
  const Outcome rebuilding = run(State::kRebuilding);

  util::Table table({"state", "avg resp ms", "array watts",
                     "rebuild progress %"});
  table.row()
      .add("healthy")
      .add(healthy.avg_response_ms, 2)
      .add(healthy.avg_watts, 1)
      .add(0.0, 1)
      .done();
  table.row()
      .add("degraded (1 failed)")
      .add(degraded.avg_response_ms, 2)
      .add(degraded.avg_watts, 1)
      .add(0.0, 1)
      .done();
  table.row()
      .add("rebuilding")
      .add(rebuilding.avg_response_ms, 2)
      .add(rebuilding.avg_watts, 1)
      .add(rebuilding.rebuild_progress * 100.0, 1)
      .done();
  table.print(std::cout);

  bench::print_verdict(
      degraded.avg_response_ms > healthy.avg_response_ms * 1.05,
      "degraded reads measurably slower than healthy");
  bench::print_verdict(
      rebuilding.avg_response_ms > degraded.avg_response_ms,
      "rebuild contention adds further foreground latency");
  bench::print_verdict(rebuilding.avg_watts > healthy.avg_watts,
                       "rebuild activity draws extra power");
  bench::print_verdict(rebuilding.rebuild_progress > 0.10,
                       "rebuild makes real progress during the window");
  return bench::verdict_exit_code();
}
