// Fig 12: average throughput (IOPS, MBPS) of the RAID-5 array during a
// 30-minute replay of the web-server trace at load proportions 20 %..100 %.
// Paper finding: "the I/O workload trend remains unchanged when the load
// proportion is reduced" — the per-interval series at reduced load is a
// scaled copy of the full-load series.
#include "bench_common.h"

#include "util/stats.h"
#include "workload/web_server_model.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Fig 12 — web-server trace replay at 20..100 % load (30 min)",
      "per-interval throughput shape is preserved under load scaling");

  workload::WebServerParams params;  // 30-minute Table III-matched trace
  workload::WebServerModel model(params);
  const trace::Trace web = model.generate();
  std::printf("trace: %zu bunches, %llu packages, %.0f s\n", web.bunch_count(),
              static_cast<unsigned long long>(web.package_count()),
              web.duration());

  const auto web_source = trace::make_source(trace::TraceView::borrowed(web));

  // Per-minute interval series, like the paper's one-minute recording.
  core::EvaluationOptions options = bench::bench_options();
  options.sampling_cycle = 60.0;
  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6),
                            bench::bench_repository_dir(), options);
  const std::vector<double> loads = {0.2, 0.4, 0.6, 0.8, 1.0};

  std::vector<std::vector<double>> iops_series;
  std::vector<double> mean_iops;
  std::vector<double> mean_mbps;
  for (double load : loads) {
    const core::ReplayReport report =
        host.run_source(web_source, "web", load).report;
    if (report.late_schedules != 0) {
      // A late schedule means the DES clamped an event into the present —
      // the replayed timing silently drifted. Figure data would be invalid.
      std::fprintf(stderr, "FATAL: %llu late schedules at load %.0f %%\n",
                   static_cast<unsigned long long>(report.late_schedules),
                   load * 100.0);
      return 1;
    }
    iops_series.push_back(report.perf.iops_series);
    mean_iops.push_back(report.perf.iops);
    mean_mbps.push_back(report.perf.mbps);
  }

  // Print the per-minute IOPS series side by side.
  util::Table table({"minute", "20%", "40%", "60%", "80%", "100%"});
  const std::size_t minutes = iops_series.back().size();
  for (std::size_t m = 0; m < minutes; ++m) {
    auto row = table.row();
    row.add(static_cast<std::uint64_t>(m + 1));
    for (const auto& series : iops_series) {
      row.add(m < series.size() ? series[m] : 0.0, 1);
    }
    row.done();
  }
  table.print(std::cout);

  std::printf("\nmean IOPS:");
  for (double v : mean_iops) std::printf(" %.1f", v);
  std::printf("\nmean MBPS:");
  for (double v : mean_mbps) std::printf(" %.2f", v);
  std::printf("\n");

  // Shape preservation: each reduced-load per-minute series correlates
  // strongly with the 100 % series.
  bool shape_ok = true;
  for (std::size_t i = 0; i + 1 < loads.size(); ++i) {
    std::vector<double> a = iops_series[i];
    std::vector<double> b = iops_series.back();
    const std::size_t n = std::min(a.size(), b.size());
    a.resize(n);
    b.resize(n);
    const double r = util::pearson_correlation(a, b);
    std::printf("corr(%.0f%%, 100%%) = %.4f\n", loads[i] * 100.0, r);
    if (r < 0.95) shape_ok = false;
  }
  bench::print_verdict(shape_ok,
                       "workload trend unchanged across load proportions "
                       "(per-minute correlation > 0.95)");
  return bench::verdict_exit_code();
}
