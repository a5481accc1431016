#include "storage/cache_tier.h"

#include <gtest/gtest.h>

#include "storage/callback_sink.h"
#include "storage/disk_array.h"
#include "storage/power_policy.h"

namespace tracer::storage {
namespace {

/// Scripted backing device: fixed service latency, zero standing draw, and
/// per-direction submit counters, so every cache decision is observable as
/// "did the media get touched".
class FakeBacking final : public BlockDevice {
 public:
  explicit FakeBacking(sim::Simulator& sim, Seconds latency = 0.01)
      : BlockDevice(sim), latency_(latency) {}

  Bytes capacity() const override { return kGiB; }

  void submit(const IoRequest& request, CompletionCallback done) override {
    ++(request.op == OpType::kRead ? reads_ : writes_);
    ++outstanding_;
    const Seconds now = sim_.now();
    sim_.schedule_in(latency_, [this, request, done = std::move(done), now] {
      --outstanding_;
      done(IoCompletion{request.id, now, now + latency_, request.bytes,
                        request.op});
    });
  }

  std::size_t outstanding() const override { return outstanding_; }
  std::string name() const override { return "fake"; }
  Watts power_at(Seconds) const override { return 0.0; }
  Joules energy_until(Seconds) override { return 0.0; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

 private:
  Seconds latency_;
  std::size_t outstanding_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

CacheTierParams small_cache(std::size_t lines) {
  CacheTierParams params;
  params.line_size = 64 * kKiB;
  params.capacity = lines * params.line_size;
  params.flush_threshold = 1.0;  // tests trigger flushes explicitly
  return params;
}

constexpr Sector kLineSectors = 64 * kKiB / kSectorSize;  // 128

IoRequest line_read(std::uint64_t line, Bytes bytes = 64 * kKiB) {
  return IoRequest{line + 1, line * kLineSectors, bytes, OpType::kRead};
}

IoRequest line_write(std::uint64_t line, Bytes bytes = 64 * kKiB) {
  return IoRequest{line + 1, line * kLineSectors, bytes, OpType::kWrite};
}

Seconds run_one(sim::Simulator& sim, CacheTier& cache, const IoRequest& req) {
  Seconds latency = -1.0;
  CallbackSink done;
  cache.submit(req, done.bind([&latency](const IoCompletion& c) {
    latency = c.latency();
  }));
  sim.run();
  return latency;
}

TEST(CacheTier, RejectsBadParameters) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  auto expect_throws = [&](CacheTierParams p) {
    EXPECT_THROW(CacheTier(sim, p, backing), std::invalid_argument);
  };
  CacheTierParams p = small_cache(4);
  p.line_size = 0;
  expect_throws(p);
  p = small_cache(4);
  p.line_size = 1000;  // not a sector multiple
  expect_throws(p);
  p = small_cache(4);
  p.capacity = p.line_size - 1;
  expect_throws(p);
  p = small_cache(4);
  p.flush_threshold = 0.0;
  expect_throws(p);
  p = small_cache(4);
  p.flush_threshold = 1.5;
  expect_throws(p);
  p = small_cache(4);
  p.flush_batch_lines = 0;
  expect_throws(p);
  p = small_cache(4);
  p.hit_latency = -1e-6;
  expect_throws(p);
  p = small_cache(4);
  p.tier_enabled = true;
  p.tier_capacity = p.line_size - 1;
  expect_throws(p);
}

TEST(CacheTier, RejectsRequestsBeyondCapacityWithoutOverflow) {
  sim::Simulator sim;
  FakeBacking backing(sim);  // 1 GiB
  CacheTier cache(sim, small_cache(4), backing);
  auto ignore = [](const IoCompletion&) {};
  CallbackSink done;
  // 2^56 sectors is 2^65 bytes: a line index computed from sector * 512
  // wraps to line 0 and would be served as if it were in range.
  EXPECT_THROW(cache.submit(IoRequest{1, Sector{1} << 56, 64 * kKiB,
                                      OpType::kRead},
                            done.bind(ignore)),
               std::out_of_range);
  EXPECT_THROW(cache.submit(IoRequest{2, kGiB / kSectorSize, 4096,
                                      OpType::kWrite},
                            done.bind(ignore)),
               std::out_of_range);
  sim.run();
  EXPECT_EQ(cache.outstanding(), 0u);
  EXPECT_EQ(cache.dram_lines(), 0u);
  EXPECT_EQ(backing.reads() + backing.writes(), 0u);
}

TEST(CacheTier, ReadMissFillsThenHits) {
  sim::Simulator sim;
  FakeBacking backing(sim, 0.01);
  CacheTier cache(sim, small_cache(4), backing);

  const Seconds miss_latency = run_one(sim, cache, line_read(0));
  EXPECT_DOUBLE_EQ(miss_latency, 0.01);  // full media service
  EXPECT_EQ(backing.reads(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.dram_lines(), 1u);

  const Seconds hit_latency = run_one(sim, cache, line_read(0));
  EXPECT_NEAR(hit_latency, cache.params().hit_latency, 1e-9);
  EXPECT_EQ(backing.reads(), 1u);  // media untouched
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CacheTier, WriteIsAbsorbedWithoutTouchingMedia) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTier cache(sim, small_cache(4), backing);

  const Seconds latency = run_one(sim, cache, line_write(0));
  EXPECT_NEAR(latency, cache.params().hit_latency, 1e-9);
  EXPECT_EQ(backing.writes(), 0u);
  EXPECT_EQ(cache.dirty_lines(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // The dirty line serves subsequent reads.
  const Seconds hit_latency = run_one(sim, cache, line_read(0));
  EXPECT_NEAR(hit_latency, cache.params().hit_latency, 1e-9);
  EXPECT_EQ(backing.reads(), 0u);
}

TEST(CacheTier, DirtyRatioTriggersFlushBatch) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTierParams params = small_cache(4);
  params.flush_threshold = 0.5;  // flush at 2 of 4 lines dirty
  CacheTier cache(sim, params, backing);

  run_one(sim, cache, line_write(0));
  EXPECT_EQ(cache.stats().flushes, 0u);
  run_one(sim, cache, line_write(1));
  EXPECT_EQ(cache.stats().flushes, 1u);
  EXPECT_EQ(backing.writes(), 2u);  // both dirty lines written back
  EXPECT_EQ(cache.dirty_lines(), 0u);
  EXPECT_EQ(cache.dram_lines(), 2u);  // flushed lines stay cached, clean
}

TEST(CacheTier, EvictionWritesBackDirtyLines) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTier cache(sim, small_cache(2), backing);

  run_one(sim, cache, line_write(0));  // dirty, 1 of 2 < threshold 1.0
  run_one(sim, cache, line_read(1));   // miss fill
  run_one(sim, cache, line_read(2));   // miss fill -> evicts dirty line 0
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(backing.writes(), 1u);  // the write-back
  EXPECT_EQ(cache.dirty_lines(), 0u);

  // Line 0 is gone: reading it again is a miss.
  run_one(sim, cache, line_read(0));
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(CacheTier, LruKeepsRecentlyTouchedLines) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTier cache(sim, small_cache(2), backing);

  run_one(sim, cache, line_read(0));
  run_one(sim, cache, line_read(1));
  run_one(sim, cache, line_read(0));  // hit: line 0 becomes most-recent
  run_one(sim, cache, line_read(2));  // evicts line 1, not line 0
  EXPECT_NEAR(run_one(sim, cache, line_read(0)),
              cache.params().hit_latency, 1e-9);
  EXPECT_EQ(cache.stats().misses, 3u);  // lines 0, 1, 2 first loads
  run_one(sim, cache, line_read(1));    // was evicted
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(CacheTier, OversizedRequestBypassesCache) {
  sim::Simulator sim;
  FakeBacking backing(sim, 0.02);
  CacheTier cache(sim, small_cache(2), backing);

  const Seconds latency =
      run_one(sim, cache, IoRequest{9, 0, 4 * 64 * kKiB, OpType::kRead});
  EXPECT_NEAR(latency, 0.02, 1e-9);
  EXPECT_EQ(cache.stats().bypasses, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.dram_lines(), 0u);  // bypasses never fill
}

TEST(CacheTier, HotEvictedLinesPromoteToTierAndHitThere) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTierParams params = small_cache(2);
  params.tier_enabled = true;
  params.tier_capacity = 2 * params.line_size;
  params.promote_after = 2;
  CacheTier cache(sim, params, backing);

  run_one(sim, cache, line_read(0));  // miss, accesses(0) = 1
  run_one(sim, cache, line_read(0));  // hit, accesses(0) = 2
  run_one(sim, cache, line_read(1));  // miss fill
  run_one(sim, cache, line_read(2));  // evicts line 0 -> hot -> promoted
  EXPECT_EQ(cache.stats().promotions, 1u);
  EXPECT_EQ(cache.tier_lines(), 1u);

  // Line 0 now serves from the SSD tier: slower than DRAM, still no media.
  const std::uint64_t media_reads = backing.reads();
  const Seconds latency = run_one(sim, cache, line_read(0));
  EXPECT_NEAR(latency, params.tier_hit_latency, 1e-9);
  EXPECT_EQ(backing.reads(), media_reads);
  EXPECT_EQ(cache.stats().tier_hits, 1u);
  // The tier hit copied line 0 back into DRAM.
  EXPECT_NEAR(run_one(sim, cache, line_read(0)), params.hit_latency, 1e-9);
}

TEST(CacheTier, FullTierDemotesColdestLine) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTierParams params = small_cache(1);
  params.tier_enabled = true;
  params.tier_capacity = params.line_size;  // one tier slot
  params.promote_after = 1;                 // every eviction promotes
  CacheTier cache(sim, params, backing);

  run_one(sim, cache, line_read(0));
  run_one(sim, cache, line_read(1));  // evict 0 -> promote 0
  run_one(sim, cache, line_read(2));  // evict 1 -> tier full -> demote 0
  EXPECT_EQ(cache.stats().promotions, 2u);
  EXPECT_EQ(cache.stats().demotions, 1u);
  EXPECT_EQ(cache.tier_lines(), 1u);
}

TEST(CacheTier, WritesInvalidateTierCopies) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTierParams params = small_cache(1);
  params.tier_enabled = true;
  params.tier_capacity = 2 * params.line_size;
  params.promote_after = 2;
  CacheTier cache(sim, params, backing);

  run_one(sim, cache, line_read(0));
  run_one(sim, cache, line_read(0));   // accesses(0) = 2: promotable
  run_one(sim, cache, line_read(1));   // evict 0 -> promote
  EXPECT_EQ(cache.tier_lines(), 1u);
  // The write's DRAM allocation evicts line 1 (too cold to promote) and
  // must drop the now-stale tier copy of line 0.
  run_one(sim, cache, line_write(0));
  EXPECT_EQ(cache.tier_lines(), 0u);
}

TEST(CacheTier, ExactJoulesIdlePlusHitPulse) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTierParams params = small_cache(4);
  params.hit_latency = 0.5;  // long enough for measurable pulse energy
  CacheTier cache(sim, params, backing);

  run_one(sim, cache, line_write(0));
  // 2 s standing draw + one hit pulse over the 0.5 s service window; the
  // zero-watt backing contributes nothing.
  const Joules expected =
      2.0 * params.idle_watts + params.hit_latency * params.hit_extra_watts;
  EXPECT_NEAR(cache.energy_until(2.0), expected, 1e-9);
}

TEST(CacheTier, TierStandingDrawIsMetered) {
  sim::Simulator sim;
  FakeBacking backing(sim);
  CacheTierParams params = small_cache(4);
  params.tier_enabled = true;
  CacheTier cache(sim, params, backing);
  EXPECT_NEAR(cache.power_at(0.0), params.idle_watts + params.tier_idle_watts,
              1e-12);
  EXPECT_EQ(cache.name(), "cache+fake");
}

TEST(CacheTier, HitsKeepSpunDownDisksAsleep) {
  // The reason this wrapper exists: once the working set is cached, the
  // spindles can stay in standby — the media-direct model can never show
  // this.
  sim::Simulator sim;
  DiskArray array(sim, ArrayConfig::hdd_testbed(6));
  CacheTierParams params = small_cache(16);
  CacheTier cache(sim, params, array);

  // Warm the line through the media, then let the policy stop every disk.
  run_one(sim, cache, line_read(0));
  SpinDownPolicyParams policy;
  policy.idle_timeout = 1.0;
  SpinDownManager manager(sim, array.hdd_disks(), policy);
  sim.schedule_at(sim.now() + 2.0, [&manager] { manager.evaluate(); });
  sim.run();
  ASSERT_EQ(manager.active_disks(), 0u);

  // Cached read: completes at DRAM latency, no disk wakes up.
  const Seconds latency = run_one(sim, cache, line_read(0));
  EXPECT_NEAR(latency, params.hit_latency, 1e-9);
  EXPECT_EQ(manager.active_disks(), 0u);
  for (HddModel* disk : array.hdd_disks()) {
    EXPECT_EQ(disk->power_state(), HddModel::PowerState::kStandby);
    EXPECT_EQ(disk->spin_ups(), 0u);
  }
}

}  // namespace
}  // namespace tracer::storage
