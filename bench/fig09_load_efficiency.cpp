// Fig 9: impact of I/O load on energy efficiency.
//   (a) IOPS/Watt vs load level for request sizes 512 B … 1 MB
//       (read 25 %, random 25 %);
//   (b) MBPS/Kilowatt vs load level for request sizes 512 B … 64 KB
//       (read 0…75 %, random 25 %).
// Paper findings: efficiency is (nearly) linearly proportional to load,
// and IOPS/Watt is higher for small requests than large ones.
#include "bench_common.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Fig 9 — impact of I/O load on energy efficiency",
      "efficiency grows ~linearly with load; small requests win on "
      "IOPS/Watt");

  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6),
                            bench::bench_repository_dir(),
                            bench::bench_options());

  // ---- (a) IOPS/Watt, request sizes 512B..1MB, read 25 %, random 25 %.
  std::printf("\n(a) IOPS/Watt vs load  [read 25%%, random 25%%]\n");
  std::vector<std::string> header = {"load %"};
  for (Bytes size : workload::grid_request_sizes()) {
    header.push_back(util::format_size(size));
  }
  util::Table table_a(header);

  bool all_increasing = true;
  std::vector<std::vector<double>> series_by_size;
  for (Bytes size : workload::grid_request_sizes()) {
    workload::WorkloadMode mode;
    mode.request_size = size;
    mode.read_ratio = 0.25;
    mode.random_ratio = 0.25;
    std::vector<double> series;
    for (double load : bench::load_levels()) {
      mode.load_proportion = load;
      series.push_back(host.run_test(mode).record.iops_per_watt);
    }
    all_increasing = all_increasing && bench::mostly_increasing(series, 0.05);
    series_by_size.push_back(std::move(series));
  }
  for (std::size_t li = 0; li < bench::load_levels().size(); ++li) {
    auto row = table_a.row();
    row.add(static_cast<int>(bench::load_levels()[li] * 100));
    for (const auto& series : series_by_size) row.add(series[li], 3);
    row.done();
  }
  table_a.print(std::cout);
  bench::print_verdict(all_increasing,
                       "IOPS/Watt rises with load for every request size");
  const bool small_beats_large =
      series_by_size.front().back() > series_by_size.back().back();
  bench::print_verdict(small_beats_large,
                       "IOPS/Watt higher for small requests than large");

  // ---- (b) MBPS/kW, request sizes 512B..64KB, read ratios 0..75 %.
  std::printf("\n(b) MBPS/Kilowatt vs load  [random 25%%, read 0..75%%]\n");
  util::Table table_b({"load %", "512B rd0", "4K rd25", "16K rd50",
                       "64K rd75"});
  const std::vector<std::pair<Bytes, double>> combos = {
      {512, 0.0}, {4 * kKiB, 0.25}, {16 * kKiB, 0.50}, {64 * kKiB, 0.75}};
  std::vector<std::vector<double>> series_b;
  bool b_increasing = true;
  for (const auto& [size, read] : combos) {
    workload::WorkloadMode mode;
    mode.request_size = size;
    mode.read_ratio = read;
    mode.random_ratio = 0.25;
    std::vector<double> series;
    for (double load : bench::load_levels()) {
      mode.load_proportion = load;
      series.push_back(host.run_test(mode).record.mbps_per_kilowatt);
    }
    b_increasing = b_increasing && bench::mostly_increasing(series, 0.05);
    series_b.push_back(std::move(series));
  }
  for (std::size_t li = 0; li < bench::load_levels().size(); ++li) {
    auto row = table_b.row();
    row.add(static_cast<int>(bench::load_levels()[li] * 100));
    for (const auto& series : series_b) row.add(series[li], 2);
    row.done();
  }
  table_b.print(std::cout);
  bench::print_verdict(b_increasing,
                       "MBPS/kW rises with load across modes");
  return bench::verdict_exit_code();
}
