// §VI-G: the SSD-based RAID-5 study. Paper findings:
//   * idle power: ~3.5 W per SSD, 195.8 W for the array (chassis-dominated);
//   * higher random ratio -> lower energy efficiency (same direction as
//     HDD but far gentler);
//   * lower read ratio -> relatively higher energy efficiency (SLC program
//     is fast; the opposite end from the HDD array's behaviour);
//   * SSD RAID is more energy-efficient than the HDD RAID per unit work.
#include "bench_common.h"

#include "power/power_analyzer.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "SSD RAID-5 (4 x Memoright SLC 32 GB) — §VI-G",
      "idle 195.8 W; efficiency falls with random ratio, rises as read "
      "ratio falls; beats HDD RAID on efficiency");

  // ---- Idle power.
  {
    sim::Simulator sim;
    storage::DiskArray array(sim, storage::ArrayConfig::ssd_testbed(4));
    power::PowerAnalyzer analyzer(1.0);
    analyzer.add_channel(array);
    analyzer.schedule_sampling(sim, 0.0, 30.0);
    sim.run();
    const double idle = analyzer.report(0).mean_watts();
    std::printf("idle power: %.1f W (paper: 195.8 W)\n", idle);
    bench::print_verdict(std::abs(idle - 195.8) < 2.0,
                         "array idle power matches the stated 195.8 W");
  }

  core::EvaluationHost ssd_host(storage::ArrayConfig::ssd_testbed(4),
                                bench::bench_repository_dir(),
                                bench::bench_options());
  core::EvaluationHost hdd_host(storage::ArrayConfig::hdd_testbed(6),
                                bench::bench_repository_dir(),
                                bench::bench_options());

  // ---- Random ratio sweep. Stripe-unit-sized requests keep the member-
  // disk parallelism identical across random ratios, so the measured
  // effect is the FTL's random-write amplification — the §VI-G mechanism.
  std::printf("\nrandom-ratio sweep (128 KB, read 50 %%, load 100 %%)\n");
  util::Table rnd_table({"random %", "MBPS", "watts", "MBPS/kW"});
  std::vector<double> rnd_eff;
  for (double random : {0.0, 0.25, 0.50, 0.75, 1.0}) {
    workload::WorkloadMode mode;
    mode.request_size = 128 * kKiB;
    mode.read_ratio = 0.50;
    mode.random_ratio = random;
    const auto record = ssd_host.run_test(mode).record;
    rnd_eff.push_back(record.mbps_per_kilowatt);
    rnd_table.row()
        .add(static_cast<int>(random * 100))
        .add(record.mbps, 2)
        .add(record.avg_watts, 1)
        .add(record.mbps_per_kilowatt, 2)
        .done();
  }
  rnd_table.print(std::cout);
  bench::print_verdict(bench::mostly_decreasing(rnd_eff, 0.05),
                       "higher random ratio -> lower efficiency (gentle)");

  // ---- Read ratio sweep (16 KB, random 0 %). §VI-G: "a low read ratio
  // leads to relatively high energy efficiency; the trend is similar to
  // that discussed in Section VI-E" — i.e. the Fig 11 U-like shape, where
  // the write-heavy end sits well above the mixed middle.
  std::printf("\nread-ratio sweep (128 KB, random 0 %%, load 100 %%)\n");
  util::Table rd_table({"read %", "MBPS", "watts", "MBPS/kW"});
  std::vector<double> rd_eff;
  for (double read : {0.0, 0.25, 0.50, 0.75, 1.0}) {
    workload::WorkloadMode mode;
    mode.request_size = 128 * kKiB;
    mode.read_ratio = read;
    mode.random_ratio = 0.0;
    const auto record = ssd_host.run_test(mode).record;
    rd_eff.push_back(record.mbps_per_kilowatt);
    rd_table.row()
        .add(static_cast<int>(read * 100))
        .add(record.mbps, 2)
        .add(record.avg_watts, 1)
        .add(record.mbps_per_kilowatt, 2)
        .done();
  }
  rd_table.print(std::cout);
  const double mid = std::min(rd_eff[1], rd_eff[2]);
  bench::print_verdict(rd_eff.front() > mid,
                       "low read ratio relatively efficient (VI-E-like "
                       "shape: write-heavy end above the mixed middle)");

  // ---- SSD vs HDD on the same mode, excluding the chassis. The paper's
  // §VI-G conclusion is about the drives: compare per-device efficiency by
  // subtracting the enclosure base (the SAN chassis would drown the SSDs).
  std::printf("\nSSD vs HDD (16 KB, random 50 %%, read 50 %%)\n");
  workload::WorkloadMode mode;
  mode.request_size = 16 * kKiB;
  mode.read_ratio = 0.50;
  mode.random_ratio = 0.50;
  const auto ssd = ssd_host.run_test(mode).record;
  const auto hdd = hdd_host.run_test(mode).record;
  const double ssd_disk_watts =
      ssd.avg_watts - storage::ArrayConfig::ssd_testbed(4).enclosure_base_watts;
  const double hdd_disk_watts =
      hdd.avg_watts - storage::ArrayConfig::hdd_testbed(6).enclosure_base_watts;
  const double ssd_eff = ssd.mbps / (ssd_disk_watts / 1000.0);
  const double hdd_eff = hdd.mbps / (hdd_disk_watts / 1000.0);
  std::printf("SSD: %.2f MBPS, %.1f W disks -> %.1f MBPS/kW(disk)\n", ssd.mbps,
              ssd_disk_watts, ssd_eff);
  std::printf("HDD: %.2f MBPS, %.1f W disks -> %.1f MBPS/kW(disk)\n", hdd.mbps,
              hdd_disk_watts, hdd_eff);
  bench::print_verdict(ssd_eff > hdd_eff,
                       "SSD RAID more energy-efficient than HDD RAID "
                       "(per-drive power)");
  return bench::verdict_exit_code();
}
