// Table IV: accuracy of load-proportion control for the real-world web
// server trace, in both IOPS and MBPS. Paper finding: maximum error around
// 7 % (variable request sizes and bursty bunches make this harder than the
// fixed-size synthetic case of Fig 8).
#include "bench_common.h"

#include "core/metrics.h"
#include "workload/web_server_model.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Table IV — load-control accuracy on the web-server trace",
      "measured load proportions track configured ones; max error ~7 %");

  workload::WebServerParams params;
  workload::WebServerModel model(params);
  const auto web =
      trace::make_source(trace::TraceView::owning(model.generate()));

  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6),
                            bench::bench_repository_dir(),
                            bench::bench_options());
  auto run = [&](double load) {
    return host.run_source(web, "web", load).report;
  };

  const core::ReplayReport base = run(1.0);

  util::Table table({"configured %", "measured % (IOPS)", "acc (IOPS)",
                     "measured % (MBPS)", "acc (MBPS)"});
  double max_error = 0.0;
  for (double load : bench::load_levels()) {
    const core::ReplayReport report = load >= 1.0 ? base : run(load);
    const core::LoadControlRow row = core::make_load_control_row(
        load, base.perf.iops, base.perf.mbps, report.perf.iops,
        report.perf.mbps);
    max_error = std::max({max_error, std::abs(row.accuracy_iops - 1.0),
                          std::abs(row.accuracy_mbps - 1.0)});
    table.row()
        .add(static_cast<int>(load * 100))
        .add(row.measured_iops_lp * 100.0, 4)
        .add(row.accuracy_iops, 5)
        .add(row.measured_mbps_lp * 100.0, 4)
        .add(row.accuracy_mbps, 5)
        .done();
  }
  table.print(std::cout);
  std::printf("max error: %.2f %%\n", max_error * 100.0);
  bench::print_verdict(max_error < 0.08,
                       "real-world trace error within the paper's ~7 % band");
  return bench::verdict_exit_code();
}
