// Table V: accuracy of load-proportion control (MBPS) for the HP cello99
// traces, exercised through the real format pipeline: the cello model
// emits SRT records, the trace format transformer converts them to the
// blktrace structure, and the filter + replay run on the result.
// Paper finding: errors are larger than the web trace's, "partially
// because of the uneven request sizes in the HP's cello99 traces".
#include "bench_common.h"

#include "core/metrics.h"
#include "trace/srt_format.h"
#include "trace/trace_stats.h"
#include "workload/cello_model.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Table V — load-control accuracy on the cello99 trace (srt pipeline)",
      "errors larger than the web trace (uneven request sizes), shape held");

  workload::CelloParams params;
  workload::CelloModel model(params);
  const std::vector<trace::SrtRecord> srt = model.generate_srt();
  const trace::Trace cello = trace::srt_to_blk(srt, 0.5e-3, "cello99");
  const auto cello_source =
      trace::make_source(trace::TraceView::borrowed(cello));
  const trace::TraceStats stats = trace::compute_stats(*cello_source);
  std::printf(
      "srt records: %zu -> %zu bunches; read ratio %.1f %%, mean req %.1f KB\n",
      srt.size(), cello.bunch_count(), stats.read_ratio * 100.0,
      stats.mean_request_kb);

  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6),
                            bench::bench_repository_dir(),
                            bench::bench_options());
  auto run = [&](double load) {
    return host.run_source(cello_source, "cello99", load).report;
  };
  const core::ReplayReport base = run(1.0);

  util::Table table({"configured %", "measured % (MBPS)", "acc (MBPS)"});
  double max_error = 0.0;
  double sum_error = 0.0;
  for (double load : bench::load_levels()) {
    const core::ReplayReport report = load >= 1.0 ? base : run(load);
    const double measured =
        core::load_proportion(base.perf.mbps, report.perf.mbps);
    const double accuracy = core::load_control_accuracy(measured, load);
    max_error = std::max(max_error, std::abs(accuracy - 1.0));
    sum_error += std::abs(accuracy - 1.0);
    table.row()
        .add(static_cast<int>(load * 100))
        .add(measured * 100.0, 4)
        .add(accuracy, 5)
        .done();
  }
  table.print(std::cout);
  std::printf("max error: %.2f %%, mean error: %.2f %%\n", max_error * 100.0,
              sum_error * 10.0);
  // Paper's Table V worst row: 13.2 measured at 10 configured (32 % off).
  bench::print_verdict(max_error < 0.35,
                       "cello error within the paper's Table V band "
                       "(worst paper row ~32 % at 10 % load)");
  return bench::verdict_exit_code();
}
