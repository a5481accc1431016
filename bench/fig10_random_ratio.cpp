// Fig 10: impact of random ratio on energy efficiency at 100 % load.
//   (a) MBPS/Kilowatt, request sizes 512 B..64 KB, read ratio 0 %;
//   (b) IOPS/Watt,     request sizes 512 B..1 MB,  read ratio 100 %.
// Paper findings: efficiency falls as random ratio rises (seek power +
// collapsing throughput), and the curves flatten once random ratio
// exceeds ~30 %.
#include "bench_common.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Fig 10 — impact of random ratio on energy efficiency (load 100 %)",
      "efficiency decreases with random ratio; insensitive beyond ~30 %");

  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6),
                            bench::bench_repository_dir(),
                            bench::bench_options());

  const std::vector<double> random_ratios = {0.0, 0.1, 0.2, 0.3, 0.5,
                                             0.75, 1.0};

  auto run_panel = [&](const char* title, double read_ratio,
                       const std::vector<Bytes>& sizes, bool use_mbps) {
    std::printf("\n%s\n", title);
    std::vector<std::string> header = {"random %"};
    for (Bytes size : sizes) header.push_back(util::format_size(size));
    util::Table table(header);

    bool all_decreasing = true;
    bool flattens = true;
    std::vector<std::vector<double>> by_size;
    for (Bytes size : sizes) {
      workload::WorkloadMode mode;
      mode.request_size = size;
      mode.read_ratio = read_ratio;
      mode.load_proportion = 1.0;
      std::vector<double> series;
      for (double random : random_ratios) {
        mode.random_ratio = random;
        const auto record = host.run_test(mode).record;
        series.push_back(use_mbps ? record.mbps_per_kilowatt
                                  : record.iops_per_watt);
      }
      all_decreasing =
          all_decreasing && bench::mostly_decreasing(series, 0.10);
      // Flattening: relative drop from rnd 50 % -> 100 % is much smaller
      // than the drop from 0 % -> 30 % (indices 0,3 then 4,6).
      const double early_drop = series[0] - series[3];
      const double late_drop = series[4] - series[6];
      if (series[0] > 0.0 && late_drop > 0.6 * early_drop) flattens = false;
      by_size.push_back(std::move(series));
    }
    for (std::size_t ri = 0; ri < random_ratios.size(); ++ri) {
      auto row = table.row();
      row.add(static_cast<int>(random_ratios[ri] * 100));
      for (const auto& series : by_size) row.add(series[ri], 3);
      row.done();
    }
    table.print(std::cout);
    bench::print_verdict(all_decreasing,
                         "efficiency decreases as random ratio rises");
    bench::print_verdict(flattens,
                         "curves flatten beyond ~30 % random ratio");
  };

  run_panel("(a) MBPS/Kilowatt  [read 0%]", 0.0,
            {512, 4 * kKiB, 16 * kKiB, 64 * kKiB}, /*use_mbps=*/true);
  run_panel("(b) IOPS/Watt  [read 100%]", 1.0,
            {512, 4 * kKiB, 16 * kKiB, 64 * kKiB, kMiB}, /*use_mbps=*/false);
  return bench::verdict_exit_code();
}
