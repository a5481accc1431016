// Fig 11: impact of read ratio on throughput (MBPS) and energy efficiency
// (MBPS/Kilowatt). Request size 16 KB; random ratio 0 %, 50 %, 100 %.
// Paper findings: at random 50/100 % the curves are insensitive to read
// ratio; at random 0 % there is a U-shape — pure-read and pure-write
// sequential workloads beat mixed ones.
#include "bench_common.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Fig 11 — impact of read ratio (16 KB requests, load 100 %)",
      "U-shaped MBPS and MBPS/kW vs read ratio at random 0 %; flat at "
      "random 50/100 %");

  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6),
                            bench::bench_repository_dir(),
                            bench::bench_options());

  const std::vector<double> read_ratios = {0.0, 0.25, 0.50, 0.75, 1.0};
  const std::vector<double> random_ratios = {0.0, 0.50, 1.0};

  util::Table mbps_table({"read %", "rnd 0%", "rnd 50%", "rnd 100%"});
  util::Table eff_table({"read %", "rnd 0%", "rnd 50%", "rnd 100%"});

  std::vector<std::vector<double>> mbps_series(random_ratios.size());
  std::vector<std::vector<double>> eff_series(random_ratios.size());
  for (std::size_t ri = 0; ri < random_ratios.size(); ++ri) {
    for (double read : read_ratios) {
      workload::WorkloadMode mode;
      mode.request_size = 16 * kKiB;
      mode.random_ratio = random_ratios[ri];
      mode.read_ratio = read;
      mode.load_proportion = 1.0;
      const auto record = host.run_test(mode).record;
      mbps_series[ri].push_back(record.mbps);
      eff_series[ri].push_back(record.mbps_per_kilowatt);
    }
  }
  for (std::size_t i = 0; i < read_ratios.size(); ++i) {
    mbps_table.row()
        .add(static_cast<int>(read_ratios[i] * 100))
        .add(mbps_series[0][i], 2)
        .add(mbps_series[1][i], 2)
        .add(mbps_series[2][i], 2)
        .done();
    eff_table.row()
        .add(static_cast<int>(read_ratios[i] * 100))
        .add(eff_series[0][i], 2)
        .add(eff_series[1][i], 2)
        .add(eff_series[2][i], 2)
        .done();
  }
  std::printf("\n(a) throughput MBPS\n");
  mbps_table.print(std::cout);
  std::printf("\n(b) efficiency MBPS/Kilowatt\n");
  eff_table.print(std::cout);

  // U-shape at random 0 %: both endpoints beat the 50 % midpoint clearly.
  auto u_shaped = [](const std::vector<double>& series) {
    const double mid = series[2];
    return series.front() > mid * 1.10 && series.back() > mid * 1.10;
  };
  // "Not very sensitive" at random 100 % is relative: the read-ratio spread
  // there must be a small fraction of the dramatic sequential-case swing
  // (RAID-5 read-modify-write keeps an honest ~4x read/write gap on random
  // I/O, so absolute flatness is not physical with the cache disabled).
  auto spread = [](const std::vector<double>& series) {
    double lo = series.front(), hi = series.front();
    for (double v : series) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return lo > 0.0 ? hi / lo : 0.0;
  };

  bench::print_verdict(u_shaped(mbps_series[0]) && u_shaped(eff_series[0]),
                       "U-shape vs read ratio at random 0 %");
  const double relative_sensitivity =
      spread(mbps_series[2]) / spread(mbps_series[0]);
  std::printf("read-ratio spread: rnd0 %.1fx, rnd100 %.1fx (relative %.2f)\n",
              spread(mbps_series[0]), spread(mbps_series[2]),
              relative_sensitivity);
  bench::print_verdict(relative_sensitivity < 0.35,
                       "read-ratio sensitivity at random 100 % is a small "
                       "fraction of the sequential case's");
  return bench::verdict_exit_code();
}
