// Quickstart: evaluate the energy efficiency of the paper's RAID-5 HDD
// testbed under one workload mode at three load proportions.
//
// Walks the whole §III-B procedure: collect a peak trace (IOmeter-style
// saturation + trace collector), filter it with the proportional filter,
// replay it with power metering, print the records and store them in a
// results journal.
#include <cstdio>
#include <filesystem>

#include "core/evaluation_host.h"
#include "db/journal.h"
#include "util/table.h"

#include <iostream>

int main() {
  using namespace tracer;

  // The Table II testbed: 6 x Seagate 7200.12 in RAID-5, 128 KB strips,
  // controller cache disabled, metered at the 220 V AC feed.
  const storage::ArrayConfig array = storage::ArrayConfig::hdd_testbed(6);

  const auto repo_dir =
      std::filesystem::temp_directory_path() / "tracer-quickstart-repo";
  core::EvaluationOptions options;
  options.collection_duration = 4.0;  // seconds of peak-trace collection
  core::EvaluationHost host(array, repo_dir, options);

  // Workload mode vector: 16 KB requests, 25 % random, 50 % reads.
  workload::WorkloadMode mode;
  mode.request_size = 16 * kKiB;
  mode.random_ratio = 0.25;
  mode.read_ratio = 0.50;

  const auto results = repo_dir / "results.csv";
  std::filesystem::remove(results);
  db::CampaignJournal journal(results);
  std::size_t stored = 0;

  util::Table table({"load %", "IOPS", "MBPS", "resp ms", "watts",
                     "IOPS/Watt", "MBPS/kW"});
  for (double load : {0.2, 0.6, 1.0}) {
    mode.load_proportion = load;
    core::TestResult result = host.run_test(mode);
    db::TestRecord& r = result.record;
    r.test_id = ++stored;
    journal.append(r);
    table.row()
        .add(static_cast<int>(load * 100))
        .add(r.iops, 1)
        .add(r.mbps, 2)
        .add(r.avg_response_ms, 3)
        .add(r.avg_watts, 2)
        .add(r.iops_per_watt, 3)
        .add(r.mbps_per_kilowatt, 2)
        .done();
  }

  std::printf("TRACER quickstart — %s, mode %s\n", array.name.c_str(),
              mode.to_string().c_str());
  table.print(std::cout);
  std::printf("\n%zu records stored in the results journal %s\n", stored,
              results.string().c_str());
  return 0;
}
