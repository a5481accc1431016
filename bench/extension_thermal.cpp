// Extension: the temperature metric the paper's conclusions promise
// ("temperature has obvious influences on energy, performance and
// reliability"). For each load level, replay the same mode and report
// steady-state drive temperature and the reliability derating alongside
// the power draw — the thermal column a future TRACER record would carry.
#include "bench_common.h"

#include <cmath>

#include "core/proportional_filter.h"
#include "power/thermal.h"
#include "storage/callback_sink.h"
#include "storage/disk_array.h"
#include "workload/synthetic_generator.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Extension — temperature metric (paper conclusions / future work)",
      "drive temperature and failure-rate derating rise with I/O load");

  // Collect one peak trace (16 KB, rnd 50 %, rd 50 %).
  trace::Trace peak;
  {
    sim::Simulator sim;
    storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
    workload::SyntheticParams params;
    params.request_size = 16 * kKiB;
    params.read_ratio = 0.5;
    params.random_ratio = 0.5;
    params.duration = 8.0;
    params.seed = 77;
    workload::SyntheticGenerator generator(sim, array, params);
    peak = generator.run().trace;
  }

  // Fast thermal node so an 8 s replay reaches steady state (a real drive
  // takes ~20 min; tau scales out of the steady-state value).
  power::ThermalParams thermal;
  thermal.capacitance_j_per_c = 2.0;  // tau = 1.2 s

  util::Table table({"load %", "disk watts", "temp C", "AFR multiplier"});
  std::vector<double> temps;
  for (double load : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const trace::Trace filtered =
        load >= 1.0 ? peak
                    : trace::materialize(*core::ProportionalFilter::apply(
                          trace::make_source(trace::TraceView::borrowed(peak)),
                          load));

    sim::Simulator sim;
    storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
    auto* disk0 = array.hdd_disks().front();
    power::ThermalMonitor monitor(*disk0, thermal, 0.25);
    monitor.schedule_sampling(sim, 0.0, filtered.duration());

    std::uint64_t next_id = 1;
    storage::CallbackSink done;
    for (const auto& bunch : filtered.bunches) {
      sim.schedule_at(bunch.timestamp, [&array, &bunch, &next_id, &done] {
        for (const auto& pkg : bunch.packages) {
          storage::IoRequest request{next_id++, pkg.sector, pkg.bytes,
                                     pkg.op};
          array.submit(request,
                       done.bind([](const storage::IoCompletion&) {}));
        }
      });
    }
    sim.run();

    // Steady state: mean of the last quarter of samples.
    const auto& samples = monitor.samples();
    double temp = thermal.ambient_c;
    double watts = 0.0;
    if (!samples.empty()) {
      const std::size_t tail = samples.size() * 3 / 4;
      double sum_t = 0.0;
      double sum_w = 0.0;
      for (std::size_t i = tail; i < samples.size(); ++i) {
        sum_t += samples[i].celsius;
        sum_w += samples[i].watts;
      }
      temp = sum_t / static_cast<double>(samples.size() - tail);
      watts = sum_w / static_cast<double>(samples.size() - tail);
    }
    temps.push_back(temp);
    const double afr = std::pow(
        2.0, (temp - thermal.nominal_c) / thermal.afr_doubling_c);
    table.row()
        .add(static_cast<int>(load * 100))
        .add(watts, 2)
        .add(temp, 2)
        .add(afr, 3)
        .done();
  }
  table.print(std::cout);
  bench::print_verdict(bench::mostly_increasing(temps, 0.01),
                       "steady-state temperature rises with load");
  bench::print_verdict(temps.back() - temps.front() > 0.3,
                       "the load-dependent swing is measurable (>0.3 C)");
  return bench::verdict_exit_code();
}
