// Example: the Fig 12 study as a program — replay a real-world-style web
// server trace at several load proportions, print the per-minute
// throughput series, and export the result records to CSV.
//
// Usage: webserver_replay [minutes=10] [out.csv]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "core/evaluation_host.h"
#include "trace/trace_stats.h"
#include "util/csv.h"
#include "util/table.h"
#include "workload/web_server_model.h"

#include <fstream>

int main(int argc, char** argv) {
  using namespace tracer;

  const double minutes = argc > 1 ? std::atof(argv[1]) : 10.0;
  if (!(minutes > 0.0)) {
    std::fprintf(stderr, "usage: %s [minutes > 0] [out.csv]\n", argv[0]);
    return 1;
  }
  const std::string csv_path = argc > 2 ? argv[2] : "";

  // Synthesise the web-server trace (Table III statistics).
  workload::WebServerParams params;
  params.duration = minutes * 60.0;
  workload::WebServerModel model(params);
  const auto web =
      trace::make_source(trace::TraceView::owning(model.generate()));
  const trace::TraceStats stats = trace::compute_stats(*web);
  std::printf("web trace: %llu requests, read %.1f %%, avg %.1f KB, "
              "footprint %.2f GB\n\n",
              static_cast<unsigned long long>(stats.packages),
              stats.read_ratio * 100.0, stats.mean_request_kb,
              static_cast<double>(stats.dataset_bytes) / 1e9);

  core::EvaluationOptions options;
  options.sampling_cycle = 60.0;  // the paper's one-minute intervals
  core::EvaluationHost host(
      storage::ArrayConfig::hdd_testbed(6),
      std::filesystem::temp_directory_path() / "tracer-webserver-replay",
      options);

  util::Table table(
      {"load %", "IOPS", "MBPS", "resp ms", "watts", "MBPS/kW"});
  std::vector<std::vector<std::string>> csv_rows;
  std::vector<std::vector<double>> minute_series;

  for (double load : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const core::ReplayReport report =
        host.run_source(web, "web", load).report;
    table.row()
        .add(static_cast<int>(load * 100))
        .add(report.perf.iops, 1)
        .add(report.perf.mbps, 2)
        .add(report.perf.avg_response_ms, 2)
        .add(report.avg_watts, 1)
        .add(report.efficiency.mbps_per_kilowatt, 1)
        .done();
    minute_series.push_back(report.perf.iops_series);
  }
  table.print(std::cout);

  std::printf("\nper-minute IOPS series (shape preserved under scaling):\n");
  util::Table series_table({"minute", "20%", "40%", "60%", "80%", "100%"});
  for (std::size_t m = 0; m < minute_series.back().size(); ++m) {
    auto row = series_table.row();
    row.add(static_cast<std::uint64_t>(m + 1));
    for (const auto& series : minute_series) {
      row.add(m < series.size() ? series[m] : 0.0, 1);
    }
    row.done();
  }
  series_table.print(std::cout);

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
    util::CsvWriter csv(out);
    csv.write_row({"minute", "iops20", "iops40", "iops60", "iops80",
                   "iops100"});
    for (std::size_t m = 0; m < minute_series.back().size(); ++m) {
      auto row = csv.row();
      row.add(static_cast<std::uint64_t>(m + 1));
      for (const auto& series : minute_series) {
        row.add(m < series.size() ? series[m] : 0.0, 2);
      }
      row.done();
    }
    std::printf("\nseries exported to %s\n", csv_path.c_str());
  }
  return 0;
}
