// Technique evaluation: TRACER judging a MAID/PDC-style spin-down policy —
// the use-case the paper's §I/§II motivates ("allows systems developers to
// compare among various energy-saving techniques"). For each I/O intensity,
// the same workload runs against the stock array and the power-managed
// array; the harness reports the Table I metric pair: energy savings and
// response time.
//
// Expected shape: large savings and tolerable latency on cold (archival)
// workloads; vanishing savings — and spin-up thrashing penalties — as
// intensity rises. The crossover is what a storage designer uses TRACER
// to find.
#include "bench_common.h"

#include "storage/callback_sink.h"
#include "storage/disk_array.h"
#include "storage/power_policy.h"
#include "util/rng.h"

namespace {

using namespace tracer;

struct Outcome {
  double avg_watts = 0.0;
  double avg_response_ms = 0.0;
  double spin_ups = 0.0;
};

Outcome run(double iops, bool enable_policy, Seconds duration = 600.0) {
  sim::Simulator sim;
  storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
  storage::SpinDownPolicyParams policy;
  policy.idle_timeout = 10.0;
  policy.min_active_disks = 1;  // MAID-style hot tier
  storage::SpinDownManager manager(sim, array.hdd_disks(), policy);
  if (enable_policy) manager.schedule(0.0, duration);

  util::Rng rng(31);
  const Sector span = array.capacity() / kSectorSize - 256;
  double total_latency = 0.0;
  std::uint64_t completions = 0;
  storage::CallbackSink done;

  Seconds t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / iops);
    if (t >= duration) break;
    const Sector sector = rng.below(span / 128) * 128;
    sim.schedule_at(t, [&, sector] {
      array.submit(storage::IoRequest{1, sector, 64 * kKiB, OpType::kRead},
                   done.bind([&](const storage::IoCompletion& c) {
                     total_latency += c.latency();
                     ++completions;
                   }));
    });
  }
  sim.run();

  Outcome outcome;
  const Seconds end = std::max(duration, sim.now());
  outcome.avg_watts = array.energy_until(end) / end;
  outcome.avg_response_ms =
      completions ? total_latency / static_cast<double>(completions) * 1e3
                  : 0.0;
  std::uint64_t spin_ups = 0;
  for (auto* disk : array.hdd_disks()) spin_ups += disk->spin_ups();
  outcome.spin_ups = static_cast<double>(spin_ups);
  return outcome;
}

}  // namespace

int main() {
  using namespace tracer;
  bench::print_header(
      "Technique evaluation — MAID/PDC-style spin-down vs stock array",
      "big savings on cold workloads, penalty fades to zero as load rises");

  util::Table table({"IOPS", "stock W", "policy W", "saved %", "stock ms",
                     "policy ms", "spin-ups"});
  std::vector<double> savings;
  std::vector<double> penalties;
  for (double iops : {0.02, 0.1, 0.5, 2.0, 10.0, 50.0}) {
    const Outcome stock = run(iops, false);
    const Outcome managed = run(iops, true);
    const double saved =
        (stock.avg_watts - managed.avg_watts) / stock.avg_watts * 100.0;
    savings.push_back(saved);
    penalties.push_back(managed.avg_response_ms - stock.avg_response_ms);
    table.row()
        .add(iops, 2)
        .add(stock.avg_watts, 1)
        .add(managed.avg_watts, 1)
        .add(saved, 1)
        .add(stock.avg_response_ms, 1)
        .add(managed.avg_response_ms, 1)
        .add(managed.spin_ups, 0)
        .done();
  }
  table.print(std::cout);

  bench::print_verdict(savings.front() > 30.0,
                       "cold workload saves >30 % of array power");
  bench::print_verdict(savings.back() < 10.0,
                       "busy workload keeps disks spinning (savings <10 %)");
  bench::print_verdict(penalties.front() > 100.0,
                       "cold-workload latency pays spin-up stalls "
                       "(>100 ms average penalty)");
  bench::print_verdict(
      penalties.back() < penalties.front() / 10.0,
      "latency penalty fades once the workload keeps disks hot");
  return bench::verdict_exit_code();
}
