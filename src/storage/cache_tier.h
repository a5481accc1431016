// Controller DRAM write-back cache + optional SSD-over-HDD tier, layered as
// a BlockDevice wrapper in front of any backing device (DiskArray,
// RaidController, a single drive). The replay engine drives it like any
// other device.
//
// Why it exists: TRACER compares energy-conservation techniques by
// IOPS/Watt, but a media-direct array model makes spin-down almost never
// pay off — every request touches a spindle. Real controllers absorb most
// of the traffic in DRAM (the Alibaba block-storage analysis in PAPERS.md:
// write-dominant, cache-absorbing volumes), and Open-CAS-style SSD tiers
// catch the warm read set, so HDDs can actually sleep. 2DIO's point
// (PAPERS.md) is the flip side: replayed metrics are wrong unless cache
// state is realistic — hence ReplayOptions::warmup_window, which populates
// this cache before the measured window opens.
//
// Semantics (all deterministic — LRU lists, never hash-map iteration):
//   - reads entirely in DRAM complete at hit_latency with a hit_extra_watts
//     pulse; the backing device is NOT touched, so spun-down disks stay
//     asleep (the first scenarios where SpinDownManager wins).
//   - reads entirely in DRAM ∪ tier (≥1 line from the tier) complete at
//     tier_hit_latency; tier lines are copied into DRAM.
//   - anything else forwards to the backing device; returned lines fill the
//     DRAM cache (clean), evicting LRU lines. Evicted dirty lines are
//     written back immediately; evicted lines read at least promote_after
//     times are promoted into the SSD tier (victim-cache style).
//   - writes are absorbed: lines allocate dirty in DRAM at hit_latency and
//     overlapping tier copies are invalidated. A dirty ratio above
//     flush_threshold triggers a background flush batch of the coldest
//     dirty lines (at most flush_batch_lines per batch, one batch in
//     flight).
//   - requests spanning more lines than the cache holds bypass it entirely
//     (overlapping cached lines are dropped first).
//
// Power: the wrapper owns a PowerTimeline (standing draw idle_watts +
// tier_idle_watts, pulses per DRAM/tier hit) and reports it PLUS the
// backing device's power, so one analyzer channel meters the whole stack.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "power/power_timeline.h"
#include "storage/block_device.h"
#include "util/slot_array.h"

namespace tracer::storage {

struct CacheTierParams {
  Bytes capacity = 256 * kMiB;     ///< DRAM write-back cache size
  Bytes line_size = 64 * kKiB;     ///< cache line; multiple of kSectorSize
  double flush_threshold = 0.5;    ///< dirty ratio that triggers a flush batch
  std::size_t flush_batch_lines = 64;  ///< max lines written back per batch
  Seconds hit_latency = 50e-6;     ///< DRAM hit service time
  Watts idle_watts = 4.0;          ///< DRAM + cache controller standing draw
  Watts hit_extra_watts = 1.5;     ///< pulse while serving a DRAM hit

  bool tier_enabled = false;       ///< Open-CAS-style SSD-over-HDD tier
  Bytes tier_capacity = 32 * kMiB;
  std::uint32_t promote_after = 2; ///< DRAM accesses before a line may promote
  Seconds tier_hit_latency = 250e-6;
  Watts tier_idle_watts = 1.0;     ///< SSD tier standing draw
  Watts tier_extra_watts = 2.0;    ///< pulse while serving a tier hit
};

/// Monotone counters mirrored into obs:: (`cache.*`, `tier.*`).
struct CacheTierStats {
  std::uint64_t hits = 0;        ///< requests served from DRAM (reads + absorbed writes)
  std::uint64_t misses = 0;      ///< requests forwarded to the backing device
  std::uint64_t bypasses = 0;    ///< requests too large to cache (subset of misses)
  std::uint64_t flushes = 0;     ///< background flush batches issued
  std::uint64_t evictions = 0;   ///< DRAM lines evicted (dirty ones written back)
  std::uint64_t tier_hits = 0;   ///< requests served from the SSD tier
  std::uint64_t promotions = 0;  ///< lines promoted DRAM -> tier
  std::uint64_t demotions = 0;   ///< lines dropped from a full tier
};

class CacheTier final : public BlockDevice,
                        private sim::EventTarget,
                        private IoSink {
 public:
  /// `backing` is borrowed, must share `sim`, and must outlive the wrapper.
  CacheTier(sim::Simulator& sim, const CacheTierParams& params,
            BlockDevice& backing);

  // BlockDevice
  Bytes capacity() const override { return capacity_; }
  void submit(const IoRequest& request, CompletionCallback done) override;
  std::size_t outstanding() const override {
    return foreground_ + background_writes_;
  }
  std::size_t max_concurrent_events() const override;

  // PowerSource: the cache's own draw plus the backing device's.
  std::string name() const override;
  Watts power_at(Seconds t) const override;
  Joules energy_until(Seconds t) override;

  const CacheTierParams& params() const { return params_; }
  const CacheTierStats& stats() const { return stats_; }
  std::size_t dram_lines() const { return dram_.size(); }
  std::size_t dirty_lines() const { return dirty_; }
  std::size_t tier_lines() const { return tier_.size(); }

 private:
  using LineId = std::uint64_t;
  using LruList = std::list<LineId>;

  struct DramEntry {
    LruList::iterator lru;
    bool dirty = false;
    std::uint32_t accesses = 0;
  };
  struct TierEntry {
    LruList::iterator lru;
  };

  /// What a completion from the backing device finishes: a foreground
  /// miss (fills DRAM) or bypass, whose op slot is the tag's low 32 bits,
  /// or a background write-back.
  enum class Route : std::uint64_t { kMiss = 0, kBypass = 1, kWriteBack = 2 };
  static std::uint64_t route_tag(Route route, std::uint32_t slot) {
    return static_cast<std::uint64_t>(route) << 32 | slot;
  }

  /// Typed event: the op slot of a request served from DRAM or the tier.
  void on_event(std::uint64_t slot) override;
  void on_complete(std::uint64_t tag, const IoCompletion& completion) override;
  /// Park a foreground request until its completion; returns its slot.
  std::uint32_t park(const IoRequest& request, CompletionCallback done) {
    return ops_.put(PendingIo{request, done, sim_.now()});
  }

  LineId first_line(const IoRequest& r) const;
  LineId last_line(const IoRequest& r) const;

  bool dram_has(LineId line) const { return dram_.count(line) != 0; }
  bool tier_has(LineId line) const { return tier_.count(line) != 0; }

  /// Move an existing DRAM line to the hot end and bump its access count.
  void touch_dram(LineId line);
  /// Insert a line into DRAM (evicting if full). No-op if already present.
  void insert_dram(LineId line, bool dirty);
  /// Evict the coldest DRAM line: write back if dirty, maybe promote.
  void evict_one_dram();
  /// Put a line into the SSD tier, demoting the coldest when full.
  void promote_to_tier(LineId line);
  void drop_from_tier(LineId line);

  void complete_locally(const IoRequest& request, CompletionCallback done,
                        Seconds latency, Watts extra_watts);
  void forward_miss(const IoRequest& request, CompletionCallback done);
  void write_back_line(LineId line);
  void maybe_flush();

  CacheTierParams params_;
  BlockDevice& backing_;
  Bytes capacity_;  ///< the backing device's, fixed at construction
  power::PowerTimeline timeline_;

  std::size_t max_lines_ = 0;
  std::size_t max_tier_lines_ = 0;

  // LRU front = most recently used. Entries map into the lists; state is
  // only ever enumerated through the lists, keeping behaviour independent
  // of hash ordering.
  LruList dram_lru_;
  // NOLINTNEXTLINE(tracer-no-nondeterminism-in-sim): lookup-only index; enumeration goes through dram_lru_
  std::unordered_map<LineId, DramEntry> dram_;
  LruList tier_lru_;
  // NOLINTNEXTLINE(tracer-no-nondeterminism-in-sim): lookup-only index; enumeration goes through tier_lru_
  std::unordered_map<LineId, TierEntry> tier_;
  std::size_t dirty_ = 0;

  util::SlotArray<PendingIo> ops_;     ///< foreground requests in flight
  std::size_t foreground_ = 0;         ///< caller requests in flight
  std::size_t background_writes_ = 0;  ///< eviction/flush writes in flight
  bool flush_in_flight_ = false;
  std::size_t flush_remaining_ = 0;    ///< writes left in the current batch
  std::uint64_t scratch_id_ = 0;       ///< ids for internally generated I/O

  CacheTierStats stats_;
};

}  // namespace tracer::storage
