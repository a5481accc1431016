// §VI step 1 at full scale: "We evaluated 125 synthetic I/O traces, each of
// which was replayed ten times with load proportions varied from 10% to
// 100%... more than 1250 experiments". This bench runs the complete
// campaign — every mode of the 5x5x5 grid collected once and replayed at
// all ten levels — and reports the aggregates the paper draws from it:
// the power/throughput correlation, and where the efficiency extremes sit
// in the mode space.
//
// The campaign goes through CampaignRunner, so it is fault-tolerant and
// resumable: completed tests stream to campaign_1250.journal.csv as they
// finish, a failed test costs exactly one slot instead of the whole run,
// Ctrl-C stops cleanly, and re-running the binary resumes from the journal
// without repeating completed tests (rows are keyed by matrix index, and
// the journal is bound to this matrix by its .campaign sidecar). Delete
// the journal and its sidecar for a from-scratch run.
//
// Observability flags (artifacts for CI and offline inspection):
//   --metrics-out=PATH   dump the obs:: metrics snapshot on exit
//                        (.json extension -> JSON, anything else -> CSV)
//   --trace-out=PATH     enable span tracing; write Chrome trace-viewer
//                        JSON on exit (open via chrome://tracing)
#include "bench_common.h"

#include "core/campaign.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "util/stats.h"

#include <algorithm>
#include <csignal>
#include <fstream>
#include <stdexcept>

namespace {
tracer::util::CancelToken* g_cancel = nullptr;
extern "C" void on_sigint(int) {
  if (g_cancel != nullptr) g_cancel->request_cancel();
}

// Per-phase wall-clock breakdown from the host.phase.* counters: where the
// campaign's CPU time went (generate vs filter vs replay vs measure).
// Phase times sum across worker threads, so the total can exceed elapsed
// wall clock; the shares are what matter.
void print_phase_breakdown(const tracer::obs::Snapshot& snapshot) {
  static constexpr const char* kPhases[] = {"generate", "filter", "replay",
                                            "measure"};
  double total_s = 0.0;
  for (const char* phase : kPhases) {
    total_s += static_cast<double>(snapshot.counter_or(
                   std::string("host.phase.") + phase + ".us")) /
               1e6;
  }
  if (total_s <= 0.0) return;
  std::printf("phase breakdown (thread-seconds):\n");
  for (const char* phase : kPhases) {
    const std::string prefix = std::string("host.phase.") + phase;
    const double seconds =
        static_cast<double>(snapshot.counter_or(prefix + ".us")) / 1e6;
    std::printf("  %-8s %8.2fs (%4.1f%%, %zu calls)\n", phase, seconds,
                seconds / total_s * 100.0,
                static_cast<std::size_t>(snapshot.counter_or(prefix +
                                                             ".calls")));
  }
}
}  // namespace

int main(int argc, char** argv) {
  using namespace tracer;

  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(14);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else {
      std::fprintf(stderr,
                   "usage: campaign_1250 [--metrics-out=PATH] "
                   "[--trace-out=PATH]\n");
      return 2;
    }
  }
  if (!trace_out.empty()) obs::Tracer::global().enable();

  bench::print_header(
      "Campaign — 125 synthetic modes x 10 load levels (1250 experiments)",
      "power correlates with throughput; efficiency extremes follow "
      "size/random structure");

  core::EvaluationOptions options = bench::bench_options();
  options.collection_duration = 2.0;  // keeps the campaign minutes-scale
  core::EvaluationHost host(storage::ArrayConfig::hdd_testbed(6),
                            bench::bench_repository_dir() / "campaign",
                            options);

  std::vector<workload::WorkloadMode> all_tests;
  for (const workload::WorkloadMode& base : workload::synthetic_grid()) {
    for (double load : bench::load_levels()) {
      workload::WorkloadMode mode = base;
      mode.load_proportion = load;
      all_tests.push_back(mode);
    }
  }

  core::CampaignOptions campaign_options;
  campaign_options.journal_path = "campaign_1250.journal.csv";
  campaign_options.max_retries = 1;
  campaign_options.on_progress = [](const core::CampaignProgress& p) {
    if (p.processed() % 125 == 0 || p.processed() == p.total) {
      std::printf("  %zu/%zu done (%zu resumed, %zu failed, %zu retries), "
                  "elapsed %.0fs, eta %.0fs\n",
                  p.processed(), p.total, p.skipped, p.failed, p.retries,
                  p.elapsed, p.eta);
    }
  };
  core::CampaignRunner runner(host, campaign_options);
  g_cancel = &runner.cancel_token();
  std::signal(SIGINT, on_sigint);

  std::printf("running %zu experiments (journal: %s)...\n", all_tests.size(),
              campaign_options.journal_path.string().c_str());
  core::CampaignReport report;
  try {
    report = runner.run(all_tests);
  } catch (const std::runtime_error& e) {
    // A journal of another campaign (or one without an identity sidecar).
    std::fprintf(stderr, "campaign_1250: %s\n", e.what());
    return 1;
  }
  std::signal(SIGINT, SIG_DFL);
  g_cancel = nullptr;

  std::printf("campaign: %zu completed, %zu resumed from journal, %zu "
              "failed, %zu cancelled, %zu retries, %.0fs\n",
              report.completed(), report.skipped(), report.failed(),
              report.cancelled(), report.retries, report.elapsed);
  if (report.cancelled() > 0) {
    std::printf("cancelled mid-campaign; re-run to resume from the "
                "journal\n");
    return 130;
  }

  // Records in input order; a failed slot leaves a null (and drops its
  // whole mode group from the per-mode aggregates below).
  std::vector<const db::TestRecord*> records(report.outcomes.size(), nullptr);
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    if (report.outcomes[i].ok()) records[i] = &report.outcomes[i].record;
  }

  // Aggregate 1: the §I claim — "power consumption ... is closely
  // correlated with I/O throughput performance AND workload affecting
  // factors". Holding the workload factors fixed (within one mode), power
  // must track throughput across the ten load levels; across modes the
  // workload factors dominate, which is exactly the paper's point.
  std::vector<double> per_mode_corr;
  for (std::size_t m = 0; m < records.size(); m += 10) {
    std::vector<double> watts;
    std::vector<double> mbps;
    for (std::size_t l = 0; l < 10; ++l) {
      if (records[m + l] == nullptr) break;
      watts.push_back(records[m + l]->avg_watts);
      mbps.push_back(records[m + l]->mbps);
    }
    if (watts.size() < 10) continue;  // mode group incomplete
    per_mode_corr.push_back(util::pearson_correlation(mbps, watts));
  }
  if (per_mode_corr.empty()) {
    std::printf("no complete mode group; nothing to aggregate\n");
    return 1;
  }
  std::sort(per_mode_corr.begin(), per_mode_corr.end());
  const double median_corr = per_mode_corr[per_mode_corr.size() / 2];
  std::printf(
      "within-mode power-vs-MBPS correlation across load levels: median "
      "%.3f, min %.3f (%zu modes)\n",
      median_corr, per_mode_corr.front(), per_mode_corr.size());
  bench::print_verdict(median_corr > 0.9,
                       "power consumption closely correlated with I/O "
                       "throughput once workload factors are held fixed "
                       "(§I)");

  // Aggregate 2: efficiency extremes at full load.
  const db::TestRecord* best_iops_w = nullptr;
  const db::TestRecord* worst_iops_w = nullptr;
  const db::TestRecord* best_mbps_kw = nullptr;
  for (const db::TestRecord* record : records) {
    if (record == nullptr || record->load_proportion < 1.0) continue;
    if (!best_iops_w || record->iops_per_watt > best_iops_w->iops_per_watt) {
      best_iops_w = record;
    }
    if (!worst_iops_w ||
        record->iops_per_watt < worst_iops_w->iops_per_watt) {
      worst_iops_w = record;
    }
    if (!best_mbps_kw ||
        record->mbps_per_kilowatt > best_mbps_kw->mbps_per_kilowatt) {
      best_mbps_kw = record;
    }
  }
  auto mode_of = [](const db::TestRecord& r) {
    return util::format("%s rnd%.0f%% rd%.0f%%",
                        util::format_size(r.request_size).c_str(),
                        r.random_ratio * 100, r.read_ratio * 100);
  };
  util::Table extremes({"extreme (load 100%)", "mode", "value"});
  extremes.row()
      .add("best IOPS/Watt")
      .add(mode_of(*best_iops_w))
      .add(best_iops_w->iops_per_watt, 2)
      .done();
  extremes.row()
      .add("worst IOPS/Watt")
      .add(mode_of(*worst_iops_w))
      .add(worst_iops_w->iops_per_watt, 2)
      .done();
  extremes.row()
      .add("best MBPS/kW")
      .add(mode_of(*best_mbps_kw))
      .add(best_mbps_kw->mbps_per_kilowatt, 2)
      .done();
  extremes.print(std::cout);

  // Paper structure checks on the extremes: small+sequential wins
  // IOPS/Watt; large+sequential wins MBPS/kW; large+random loses IOPS/Watt.
  bench::print_verdict(best_iops_w->request_size <= 4 * kKiB &&
                           best_iops_w->random_ratio == 0.0,
                       "best IOPS/Watt is a small sequential mode");
  bench::print_verdict(best_mbps_kw->request_size >= 64 * kKiB &&
                           best_mbps_kw->random_ratio == 0.0,
                       "best MBPS/kW is a large sequential mode");
  bench::print_verdict(worst_iops_w->request_size == kMiB,
                       "worst IOPS/Watt is a 1 MB mode (fewest ops per "
                       "joule)");

  // Aggregate 3: mean load-control accuracy across all 125 modes.
  double worst_accuracy_error = 0.0;
  for (std::size_t m = 0; m < records.size(); m += 10) {
    if (records[m + 9] == nullptr) continue;
    const double base_iops = records[m + 9]->iops;  // load 100 %
    if (base_iops <= 0.0) continue;
    for (std::size_t l = 0; l < 10; ++l) {
      if (records[m + l] == nullptr) continue;
      const double configured = bench::load_levels()[l];
      const double accuracy = core::load_control_accuracy(
          core::load_proportion(base_iops, records[m + l]->iops),
          configured);
      worst_accuracy_error =
          std::max(worst_accuracy_error, std::abs(accuracy - 1.0));
    }
  }
  std::printf("worst IOPS load-control error across all %zu tests: "
              "%.1f %%\n",
              records.size(), worst_accuracy_error * 100.0);
  bench::print_verdict(worst_accuracy_error < 0.40,
                       "load control usable across the whole grid even at "
                       "2 s trace scale (error shrinks ~1/sqrt(packages); "
                       "see fig08 for paper-scale accuracy)");

  std::printf("full per-test records: %s (%zu rows, survives restarts)\n",
              campaign_options.journal_path.string().c_str(),
              report.completed() + report.skipped());

  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  print_phase_breakdown(snapshot);
  if (!metrics_out.empty()) {
    if (metrics_out.size() >= 5 &&
        metrics_out.compare(metrics_out.size() - 5, 5, ".json") == 0) {
      snapshot.write_json(metrics_out);
    } else {
      snapshot.write_csv(metrics_out);
    }
    std::printf("metrics snapshot written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    obs::Tracer::global().write_chrome_json(trace_out);
    std::printf("%zu span(s) written to %s\n",
                obs::Tracer::global().events().size(), trace_out.c_str());
  }
  return report.all_ok() ? bench::verdict_exit_code() : 1;
}
