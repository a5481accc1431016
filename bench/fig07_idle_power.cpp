// Fig 7: power consumption of the RAID enclosure in idle mode as the disk
// population grows from 0 to 6. Paper findings: (a) disk power is
// proportional to the number of disks; (b) beyond three disks, the disks
// dominate the total draw.
#include "bench_common.h"

#include "power/power_analyzer.h"
#include "sim/simulator.h"
#include "storage/disk_array.h"

int main() {
  using namespace tracer;
  bench::print_header(
      "Fig 7 — idle power vs number of disks (RAID-5 HDD enclosure)",
      "disk power grows linearly; disks dominate once count exceeds 3");

  util::Table table({"disks", "idle watts (measured)", "disk share %"});
  std::vector<double> totals;
  double base_watts = 0.0;

  for (std::size_t disks = 0; disks <= 6; ++disks) {
    sim::Simulator sim;
    storage::ArrayConfig config = storage::ArrayConfig::hdd_testbed(disks);
    storage::DiskArray array(sim, config);

    power::PowerAnalyzer analyzer(1.0);
    analyzer.add_channel(array);
    analyzer.schedule_sampling(sim, 0.0, 30.0);  // 30 s idle observation
    sim.run();

    const double watts = analyzer.report(0).mean_watts();
    totals.push_back(watts);
    if (disks == 0) base_watts = watts;
    const double disk_share =
        watts > 0.0 ? (watts - base_watts) / watts * 100.0 : 0.0;
    table.row()
        .add(static_cast<std::uint64_t>(disks))
        .add(watts, 2)
        .add(disk_share, 1)
        .done();
  }
  table.print(std::cout);

  // Claim (a): linear growth — successive increments are nearly constant.
  bool linear = true;
  const double step = totals[1] - totals[0];
  for (std::size_t i = 1; i + 1 < totals.size(); ++i) {
    const double increment = totals[i + 1] - totals[i];
    if (std::abs(increment - step) > 0.15 * step) linear = false;
  }
  bench::print_verdict(linear, "disk power scales linearly with disk count");

  // Claim (b): with 4+ disks, disks draw more than the non-disk components.
  const bool dominate = totals[4] - base_watts > base_watts &&
                        totals[3] - base_watts <= base_watts * 1.05;
  bench::print_verdict(dominate,
                       "disks dominate total power once count exceeds 3");
  return bench::verdict_exit_code();
}
