// Example: using TRACER to qualify an energy-conservation technique —
// replay the same web-server trace against the stock array and the
// spin-down-managed array, sweeping the policy's idle timeout, and report
// the energy/latency frontier a designer would pick from.
//
// Usage: energy_saving_study [minutes=5]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/interarrival_scaler.h"
#include "core/perf_monitor.h"
#include "storage/callback_sink.h"
#include "storage/disk_array.h"
#include "storage/power_policy.h"
#include "util/table.h"
#include "workload/web_server_model.h"

namespace {

using namespace tracer;

struct StudyResult {
  double avg_watts = 0.0;
  double avg_response_ms = 0.0;
  std::uint64_t spin_ups = 0;
};

StudyResult run(const trace::Trace& trace, double idle_timeout) {
  sim::Simulator sim;
  storage::DiskArray array(sim, storage::ArrayConfig::hdd_testbed(6));
  storage::SpinDownPolicyParams policy;
  policy.idle_timeout = idle_timeout > 0.0 ? idle_timeout : 1.0;
  policy.min_active_disks = 1;
  storage::SpinDownManager manager(sim, array.hdd_disks(), policy);
  if (idle_timeout > 0.0) {
    manager.schedule(0.0, trace.duration() + 60.0);
  }

  core::PerfMonitor monitor(1.0);
  storage::CallbackSink done;
  const Sector span = array.capacity() / kSectorSize;
  for (std::size_t i = 0; i < trace.bunches.size(); ++i) {
    const trace::Bunch& bunch = trace.bunches[i];
    sim.schedule_at(bunch.timestamp, [&array, &monitor, &done, &bunch, span] {
      for (const auto& pkg : bunch.packages) {
        storage::IoRequest request;
        request.sector = pkg.sector % (span - 4096);
        request.bytes = pkg.bytes;
        request.op = pkg.op;
        array.submit(request,
                     done.bind([&monitor](const storage::IoCompletion& c) {
                       monitor.on_complete(c);
                     }));
      }
    });
  }
  const Seconds end = sim.run();

  StudyResult result;
  result.avg_watts = array.energy_until(std::max(end, trace.duration())) /
                     std::max(end, trace.duration());
  result.avg_response_ms = monitor.report(trace.duration()).avg_response_ms;
  for (auto* disk : array.hdd_disks()) result.spin_ups += disk->spin_ups();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const double minutes = argc > 1 ? std::atof(argv[1]) : 5.0;
  if (!(minutes > 0.0)) {
    std::fprintf(stderr, "usage: %s [minutes > 0]\n", argv[0]);
    return 1;
  }

  // A cold workload is where spin-down earns its keep: stretch the web
  // trace to 2 % of its native intensity (archival tier traffic).
  workload::WebServerParams params;
  params.duration = minutes * 60.0;
  params.session_rate = 3.0;
  workload::WebServerModel model(params);
  const trace::Trace cold = trace::materialize(*core::InterarrivalScaler::scale(
      trace::make_source(trace::TraceView::owning(model.generate())), 0.02));

  std::printf("spin-down policy frontier on a cold web workload "
              "(%.0f min stretched to %.0f min)\n\n",
              minutes, cold.duration() / 60.0);

  util::Table table({"idle timeout s", "avg watts", "saved %", "resp ms",
                     "spin-ups"});
  const StudyResult baseline = run(cold, 0.0);
  table.row()
      .add("(stock)")
      .add(baseline.avg_watts, 1)
      .add(0.0, 1)
      .add(baseline.avg_response_ms, 1)
      .add(std::uint64_t{0})
      .done();
  for (double timeout : {5.0, 15.0, 60.0, 300.0}) {
    const StudyResult result = run(cold, timeout);
    table.row()
        .add(timeout, 0)
        .add(result.avg_watts, 1)
        .add((baseline.avg_watts - result.avg_watts) / baseline.avg_watts *
                 100.0,
             1)
        .add(result.avg_response_ms, 1)
        .add(result.spin_ups)
        .done();
  }
  table.print(std::cout);
  std::printf("\nshorter timeouts save more energy but stall more requests "
              "behind 6 s spin-ups — the frontier TRACER quantifies.\n");
  return 0;
}
