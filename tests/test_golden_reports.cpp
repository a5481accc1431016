// Golden ReplayReport literals for the classic replay kernel.
//
// Each case replays a fixed, seeded trace through ReplayEngine::replay on a
// fixed device configuration and compares the report's headline numbers
// against literals captured with `%.17g`, so any change to the event
// schedule, the RAID-5 fan-out, the device models or the power integration
// shows up as a changed bit. The matrix covers HDD and SSD arrays, healthy
// and degraded RAID-5 (a failed data member and a failed parity member),
// FIFO and LOOK queueing, the controller cache on and off, warm-up on and
// off, the controller's merge disabled, and the RAID-0 demotion of arrays
// with fewer than three disks.
//
// These literals are an oracle for refactors of the replay path: a change
// that moves one of them changes what TRACER measures and has to say why.
// On a mismatch the test prints the case's current values in the table's
// own literal format.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/replay_engine.h"
#include "storage/cache_tier.h"
#include "storage/disk_array.h"
#include "storage/hdd_model.h"
#include "storage/raid_controller.h"
#include "util/rng.h"

namespace tracer::core {
namespace {

/// Multi-package bunches mixing random extents with contiguous 64 KiB run
/// fragments, so one trace exercises the controller's elevator merge, RMW
/// and full-stripe writes, and sequential HDD hits.
trace::Trace mixed_trace(std::size_t bunches, std::uint64_t seed,
                         double read_ratio) {
  util::Rng rng(seed);
  trace::Trace trace;
  trace.device = "dev";
  Sector seq_cursor = 4096;
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * 0.002;
    const std::size_t packages = 1 + rng.below(4);
    for (std::size_t p = 0; p < packages; ++p) {
      trace::IoPackage pkg;
      if (rng.chance(0.4)) {
        pkg.sector = seq_cursor;
        pkg.bytes = 64 * kKiB;
        seq_cursor += pkg.bytes / kSectorSize;
      } else {
        pkg.sector = rng.below(1ULL << 28) * 8;
        pkg.bytes = (1 + rng.below(32)) * 4096;
      }
      pkg.op = rng.chance(read_ratio) ? OpType::kRead : OpType::kWrite;
      bunch.packages.push_back(pkg);
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

/// Requests confined to stripe row 0 of a 6-disk, 128 KiB-unit RAID-5
/// array. Left-symmetric parity puts row 0's parity on disk 5 and its first
/// data unit on disk 0, so failing disk 5 exercises the parity-member-lost
/// write path and failing disk 0 the reconstruct-read and reconstruct-write
/// paths, on every request.
trace::Trace row0_trace(std::size_t bunches, std::uint64_t seed) {
  constexpr Sector kRowSectors = 5 * 128 * kKiB / kSectorSize;
  util::Rng rng(seed);
  trace::Trace trace;
  trace.device = "dev";
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * 0.004;
    const std::size_t packages = 1 + rng.below(3);
    for (std::size_t p = 0; p < packages; ++p) {
      trace::IoPackage pkg;
      pkg.bytes = (1 + rng.below(16)) * 4096;
      pkg.sector = rng.below(kRowSectors - pkg.bytes / kSectorSize);
      pkg.op = rng.chance(0.3) ? OpType::kRead : OpType::kWrite;
      bunch.packages.push_back(pkg);
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

struct Golden {
  const char* name;
  double iops;
  double mbps;
  double avg_response_ms;
  double avg_watts;
  double joules;
  std::uint64_t events_dispatched;
};

ReplayReport replay_array(const trace::Trace& trace,
                          const storage::ArrayConfig& config,
                          const ReplayOptions& options = {},
                          int failed_disk = -1) {
  ReplayEngine engine(options);
  storage::DiskArray array(engine.simulator(), config);
  if (failed_disk >= 0) {
    array.controller().fail_disk(static_cast<std::size_t>(failed_disk));
  }
  if (!config.cache.enabled) return engine.replay(trace, array);
  storage::CacheTier cache(engine.simulator(), config.cache, array);
  return engine.replay(trace, cache);
}

/// DiskArray always merges; the merge-disabled controller is assembled by
/// hand from the testbed's HDDs, seeded the way DiskArray seeds them.
ReplayReport replay_unmerged(const trace::Trace& trace) {
  const auto config = storage::ArrayConfig::hdd_testbed(6);
  ReplayEngine engine;
  util::Rng seeder(config.seed);
  std::vector<std::unique_ptr<storage::HddModel>> disks;
  std::vector<storage::BlockDevice*> raw;
  for (std::size_t i = 0; i < config.disk_count; ++i) {
    disks.push_back(std::make_unique<storage::HddModel>(
        engine.simulator(), config.hdd, seeder.next()));
    raw.push_back(disks.back().get());
  }
  storage::RaidGeometry geometry(config.level, config.disk_count,
                                 config.stripe_unit, config.hdd.capacity);
  storage::RaidController controller(engine.simulator(), geometry,
                                     std::move(raw),
                                     config.controller_overhead,
                                     /*merge_contiguous=*/false);
  return engine.replay(trace, controller);
}

storage::ArrayConfig cached_hdd() {
  auto config = storage::ArrayConfig::hdd_testbed(6);
  config.cache.enabled = true;
  config.cache.capacity = 2 * kMiB;  // small: forces evictions and flushes
  config.cache.tier_enabled = true;
  config.cache.tier_capacity = 1 * kMiB;
  return config;
}

ReplayOptions warmed() {
  ReplayOptions options;
  options.warmup_window = 0.2;
  return options;
}

struct Case {
  Golden expected;
  std::function<ReplayReport()> run;
};

std::vector<Case> cases() {
  const auto hdd = storage::ArrayConfig::hdd_testbed(6);
  const auto ssd = storage::ArrayConfig::ssd_testbed(4);
  auto look = hdd;
  look.hdd.discipline = storage::HddParams::Discipline::kLook;
  const trace::Trace mixed = mixed_trace(300, 7, 0.5);
  const trace::Trace writes = mixed_trace(300, 8, 0.2);
  const trace::Trace row0 = row0_trace(200, 9);
  return {
      // clang-format off
      {{"hdd_healthy", 754, 50.720768, 1726.6332225645381, 92.310000000000002, 368.89864803355226, 2775},
       [=] { return replay_array(mixed, hdd); }},
      {{"ssd_healthy", 754, 50.720768, 5.9530068276315564, 198.78, 198.4452733702565, 2814},
       [=] { return replay_array(mixed, ssd); }},
      {{"hdd_degraded_mixed", 765, 52.948991999999997, 3478.6974150173, 90.52500000000002, 543.05436859425095, 3422},
       [=] { return replay_array(writes, hdd, {}, 2); }},
      {{"hdd_degraded_data_disk", 405, 14.106624, 852.70008643026279, 79.343333333333348, 237.85248202239956, 1899},
       [=] { return replay_array(row0, hdd, {}, 0); }},
      {{"hdd_degraded_parity_disk", 405, 14.106624, 8.975841685021047, 79.340000000000003, 79.195130342400006, 904},
       [=] { return replay_array(row0, hdd, {}, 5); }},
      {{"ssd_degraded", 765, 52.948991999999997, 70.039666279201782, 199.24000000000001, 198.90956741907706, 2906},
       [=] { return replay_array(writes, ssd, {}, 1); }},
      {{"hdd_look", 754, 50.720768, 950.77658409691378, 83.726666666666674, 251.00111311284735, 2774},
       [=] { return replay_array(mixed, look); }},
      {{"hdd_look_degraded", 765, 52.948991999999997, 1676.8037292180791, 82.932500000000005, 331.41939045150917, 3414},
       [=] { return replay_array(writes, look, {}, 3); }},
      {{"hdd_cache", 754, 50.720768, 519.42758952258555, 97.902500000000003, 418.94210073144393, 3451},
       [=] { return replay_array(mixed, cached_hdd()); }},
      {{"hdd_warmup", 513, 34.598911999999999, 2063.7588927681113, 91.527500000000003, 365.77945936034359, 2776},
       [=] { return replay_array(mixed, hdd, warmed()); }},
      {{"hdd_cache_warmup", 513, 34.598911999999999, 701.35433544647583, 97.717500000000001, 399.16317548691427, 3452},
       [=] { return replay_array(mixed, cached_hdd(), warmed()); }},
      {{"hdd_merge_disabled", 754, 50.720768, 1731.27354318826, 62.4375, 249.49355658383965, 2876},
       [=] { return replay_unmerged(mixed); }},
      {{"hdd_raid0_demotion", 754, 50.720768, 2969.2708553304446, 51.482857142857149, 360.56095231703779, 1566},
       [=] { return replay_array(mixed, storage::ArrayConfig::hdd_testbed(2)); }},
      // clang-format on
  };
}

std::string literal_row(const char* name, const ReplayReport& r) {
  char line[512];
  std::snprintf(line, sizeof(line),
                "{{\"%s\", %.17g, %.17g, %.17g, %.17g, %.17g, %llu},", name,
                r.perf.iops, r.perf.mbps, r.perf.avg_response_ms, r.avg_watts,
                r.joules, static_cast<unsigned long long>(r.events_dispatched));
  return line;
}

TEST(GoldenReports, ClassicKernelMatchesPinnedLiterals) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.expected.name);
    const ReplayReport report = c.run();
    EXPECT_GT(report.perf.completions, 0u);
    EXPECT_EQ(report.late_schedules, 0u);
    const Golden& g = c.expected;
    const bool match = report.perf.iops == g.iops &&
                       report.perf.mbps == g.mbps &&
                       report.perf.avg_response_ms == g.avg_response_ms &&
                       report.avg_watts == g.avg_watts &&
                       report.joules == g.joules &&
                       report.events_dispatched == g.events_dispatched;
    EXPECT_TRUE(match) << "current: " << literal_row(g.name, report);
  }
}

TEST(GoldenReports, MatrixExercisesEveryPath) {
  // The degraded cases must actually take the degraded paths, and the
  // cache case must actually hit the cache; otherwise a literal would pin
  // a healthy replay under a misleading name.
  const auto hdd = storage::ArrayConfig::hdd_testbed(6);
  for (const int failed : {0, 5}) {
    SCOPED_TRACE(failed);
    ReplayEngine engine;
    storage::DiskArray array(engine.simulator(), hdd);
    array.controller().fail_disk(static_cast<std::size_t>(failed));
    engine.replay(row0_trace(200, 9), array);
    const auto& stats = array.controller().stats();
    EXPECT_GT(stats.logical_writes, 0u);
    if (failed == 0) {
      EXPECT_GT(stats.reconstructed_reads, 0u);
    }
    // Row 0's parity lives on disk 5: with it failed no RMW row remains.
    EXPECT_EQ(stats.rmw_rows == 0, failed == 5);
  }

  ReplayEngine engine;
  const auto config = cached_hdd();
  storage::DiskArray array(engine.simulator(), config);
  storage::CacheTier cache(engine.simulator(), config.cache, array);
  engine.replay(mixed_trace(300, 7, 0.5), cache);
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().misses, 0u);
}

}  // namespace
}  // namespace tracer::core
