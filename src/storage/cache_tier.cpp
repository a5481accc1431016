#include "storage/cache_tier.h"

#include <stdexcept>

#include "obs/registry.h"

namespace tracer::storage {

namespace {

struct ObsCounters {
  obs::Counter& hits = obs::Registry::global().counter("cache.hits");
  obs::Counter& misses = obs::Registry::global().counter("cache.misses");
  obs::Counter& bypasses = obs::Registry::global().counter("cache.bypasses");
  obs::Counter& flushes = obs::Registry::global().counter("cache.flushes");
  obs::Counter& evictions = obs::Registry::global().counter("cache.evictions");
  obs::Counter& tier_hits = obs::Registry::global().counter("tier.hits");
  obs::Counter& promotions =
      obs::Registry::global().counter("tier.promotions");
  obs::Counter& demotions = obs::Registry::global().counter("tier.demotions");
};

ObsCounters& obs_counters() {
  static ObsCounters counters;
  return counters;
}

}  // namespace

CacheTier::CacheTier(sim::Simulator& sim, const CacheTierParams& params,
                     BlockDevice& backing)
    : BlockDevice(sim),
      params_(params),
      backing_(backing),
      capacity_(backing.capacity()),
      timeline_(params.idle_watts +
                (params.tier_enabled ? params.tier_idle_watts : 0.0)) {
  if (params_.line_size == 0 || params_.line_size % kSectorSize != 0) {
    throw std::invalid_argument(
        "CacheTier: line_size must be a positive multiple of the sector size");
  }
  if (params_.capacity < params_.line_size) {
    throw std::invalid_argument("CacheTier: capacity smaller than one line");
  }
  if (!(params_.flush_threshold > 0.0) || params_.flush_threshold > 1.0) {
    throw std::invalid_argument("CacheTier: flush_threshold must be in (0,1]");
  }
  if (params_.flush_batch_lines == 0) {
    throw std::invalid_argument("CacheTier: flush_batch_lines must be >= 1");
  }
  if (params_.hit_latency < 0.0 || params_.tier_hit_latency < 0.0) {
    throw std::invalid_argument("CacheTier: negative latency");
  }
  if (params_.tier_enabled && params_.tier_capacity < params_.line_size) {
    throw std::invalid_argument(
        "CacheTier: tier_capacity smaller than one line");
  }
  max_lines_ = static_cast<std::size_t>(params_.capacity / params_.line_size);
  max_tier_lines_ =
      params_.tier_enabled
          ? static_cast<std::size_t>(params_.tier_capacity / params_.line_size)
          : 0;
}

std::size_t CacheTier::max_concurrent_events() const {
  // Our own completions plus a worst-case flush batch in flight on the
  // backing device; a reservation hint only (see BlockDevice contract).
  return backing_.max_concurrent_events() + params_.flush_batch_lines + 2;
}

std::string CacheTier::name() const { return "cache+" + backing_.name(); }

Watts CacheTier::power_at(Seconds t) const {
  return timeline_.power_at(t) + backing_.power_at(t);
}

Joules CacheTier::energy_until(Seconds t) {
  return timeline_.energy_until(t) + backing_.energy_until(t);
}

CacheTier::LineId CacheTier::first_line(const IoRequest& r) const {
  return r.sector * kSectorSize / params_.line_size;
}

CacheTier::LineId CacheTier::last_line(const IoRequest& r) const {
  const Bytes span = r.bytes > 0 ? r.bytes : 1;
  return (r.sector * kSectorSize + span - 1) / params_.line_size;
}

void CacheTier::touch_dram(LineId line) {
  auto& entry = dram_.at(line);
  dram_lru_.splice(dram_lru_.begin(), dram_lru_, entry.lru);
  ++entry.accesses;
}

void CacheTier::insert_dram(LineId line, bool dirty) {
  auto it = dram_.find(line);
  if (it != dram_.end()) {
    dram_lru_.splice(dram_lru_.begin(), dram_lru_, it->second.lru);
    ++it->second.accesses;
    if (dirty && !it->second.dirty) {
      it->second.dirty = true;
      ++dirty_;
    }
    return;
  }
  if (dram_.size() >= max_lines_) evict_one_dram();
  dram_lru_.push_front(line);
  dram_.emplace(line, DramEntry{dram_lru_.begin(), dirty, 1});
  if (dirty) ++dirty_;
}

void CacheTier::evict_one_dram() {
  const LineId victim = dram_lru_.back();
  auto it = dram_.find(victim);
  const bool was_dirty = it->second.dirty;
  const std::uint32_t accesses = it->second.accesses;
  if (was_dirty) --dirty_;
  dram_lru_.pop_back();
  dram_.erase(it);
  ++stats_.evictions;
  obs_counters().evictions.increment();
  if (was_dirty) write_back_line(victim);
  // Victim-cache promotion: lines hot enough to have been touched
  // promote_after times earn a slot in the SSD tier on the way out.
  if (params_.tier_enabled && accesses >= params_.promote_after) {
    promote_to_tier(victim);
  }
}

void CacheTier::promote_to_tier(LineId line) {
  auto it = tier_.find(line);
  if (it != tier_.end()) {
    tier_lru_.splice(tier_lru_.begin(), tier_lru_, it->second.lru);
    return;
  }
  if (tier_.size() >= max_tier_lines_) {
    const LineId cold = tier_lru_.back();
    tier_lru_.pop_back();
    tier_.erase(cold);
    ++stats_.demotions;
    obs_counters().demotions.increment();
  }
  tier_lru_.push_front(line);
  tier_.emplace(line, TierEntry{tier_lru_.begin()});
  ++stats_.promotions;
  obs_counters().promotions.increment();
}

void CacheTier::drop_from_tier(LineId line) {
  auto it = tier_.find(line);
  if (it == tier_.end()) return;
  tier_lru_.erase(it->second.lru);
  tier_.erase(it);
}

void CacheTier::complete_locally(const IoRequest& request,
                                 CompletionCallback done, Seconds latency,
                                 Watts extra_watts) {
  const Seconds now = sim_.now();
  timeline_.add_pulse(now, now + latency, extra_watts);
  sim_.schedule_in(latency, *this, park(request, done));
}

void CacheTier::on_event(std::uint64_t slot) {
  const PendingIo op = ops_.take(static_cast<std::uint32_t>(slot));
  --foreground_;
  // The event fires at its own time, so now() is the finish time.
  op.done(IoCompletion{op.request.id, op.submit_time, sim_.now(),
                       op.request.bytes, op.request.op});
}

void CacheTier::forward_miss(const IoRequest& request,
                             CompletionCallback done) {
  ++stats_.misses;
  obs_counters().misses.increment();
  const std::uint32_t slot = park(request, done);
  backing_.submit(request,
                  CompletionCallback(*this, route_tag(Route::kMiss, slot)));
}

void CacheTier::on_complete(std::uint64_t tag, const IoCompletion& c) {
  const auto route = static_cast<Route>(tag >> 32);
  if (route == Route::kWriteBack) {
    --background_writes_;
    if (flush_in_flight_ && --flush_remaining_ == 0) {
      flush_in_flight_ = false;
      maybe_flush();  // ratio may still be above threshold
    }
    return;
  }
  const PendingIo op = ops_.take(static_cast<std::uint32_t>(tag));
  if (route == Route::kMiss) {
    // Fill: returned lines land in DRAM clean, evicting the cold end.
    const LineId first = first_line(op.request);
    const LineId last = last_line(op.request);
    for (LineId line = first; line <= last; ++line) {
      insert_dram(line, false);
    }
  }
  --foreground_;
  op.done(c);
}

void CacheTier::write_back_line(LineId line) {
  const Sector sectors_per_line = params_.line_size / kSectorSize;
  const IoRequest req{++scratch_id_, line * sectors_per_line,
                      params_.line_size, OpType::kWrite};
  ++background_writes_;
  backing_.submit(req,
                  CompletionCallback(*this, route_tag(Route::kWriteBack, 0)));
}

void CacheTier::maybe_flush() {
  if (flush_in_flight_) return;
  if (static_cast<double>(dirty_) <
      params_.flush_threshold * static_cast<double>(max_lines_)) {
    return;
  }
  // Coldest dirty lines first, straight off the LRU tail.
  std::vector<LineId> batch;
  batch.reserve(params_.flush_batch_lines);
  for (auto it = dram_lru_.rbegin(); it != dram_lru_.rend(); ++it) {
    if (batch.size() >= params_.flush_batch_lines) break;
    if (dram_.at(*it).dirty) batch.push_back(*it);
  }
  if (batch.empty()) return;
  flush_in_flight_ = true;
  flush_remaining_ = batch.size();
  ++stats_.flushes;
  obs_counters().flushes.increment();
  for (const LineId line : batch) {
    auto& entry = dram_.at(line);
    entry.dirty = false;  // a write during the flush re-dirties the line
    --dirty_;
    write_back_line(line);
  }
}

void CacheTier::submit(const IoRequest& request, CompletionCallback done) {
  if (!range_fits(request.sector, request.bytes, capacity_)) {
    throw std::out_of_range("CacheTier: request beyond capacity");
  }
  ++foreground_;
  const LineId first = first_line(request);
  const LineId last = last_line(request);
  const auto span = static_cast<std::size_t>(last - first + 1);

  if (span > max_lines_) {
    // Too large to cache: drop overlapping state, then go straight to media.
    for (LineId line = first; line <= last; ++line) {
      auto it = dram_.find(line);
      if (it != dram_.end()) {
        const bool was_dirty = it->second.dirty;
        if (was_dirty) --dirty_;
        dram_lru_.erase(it->second.lru);
        dram_.erase(it);
        ++stats_.evictions;
        obs_counters().evictions.increment();
        // A bypass write supersedes the dirty data; a bypass read must not
        // lose it.
        if (was_dirty && request.op == OpType::kRead) write_back_line(line);
      }
      if (request.op == OpType::kWrite) drop_from_tier(line);
    }
    ++stats_.misses;
    ++stats_.bypasses;
    obs_counters().misses.increment();
    obs_counters().bypasses.increment();
    const std::uint32_t slot = park(request, done);
    backing_.submit(request,
                    CompletionCallback(*this, route_tag(Route::kBypass, slot)));
    return;
  }

  if (request.op == OpType::kWrite) {
    // Write-back absorb: every line allocates dirty in DRAM; stale tier
    // copies are invalidated. The media is only touched later, by flush
    // batches and dirty evictions.
    for (LineId line = first; line <= last; ++line) {
      insert_dram(line, true);
      if (params_.tier_enabled) drop_from_tier(line);
    }
    ++stats_.hits;
    obs_counters().hits.increment();
    complete_locally(request, done, params_.hit_latency,
                     params_.hit_extra_watts);
    maybe_flush();
    return;
  }

  bool all_dram = true;
  bool all_cached = true;
  bool any_tier = false;
  for (LineId line = first; line <= last; ++line) {
    if (dram_has(line)) continue;
    all_dram = false;
    if (tier_has(line)) {
      any_tier = true;
    } else {
      all_cached = false;
      break;
    }
  }

  if (all_dram) {
    // DRAM hit: the backing device is never touched, so a spun-down HDD
    // underneath stays asleep — the whole point of this wrapper.
    for (LineId line = first; line <= last; ++line) touch_dram(line);
    ++stats_.hits;
    obs_counters().hits.increment();
    complete_locally(request, done, params_.hit_latency,
                     params_.hit_extra_watts);
    return;
  }

  if (all_cached && any_tier) {
    // SSD-tier hit: slower and hotter than DRAM, still no spindle involved.
    // Tier lines are copied up (the tier keeps its copy).
    for (LineId line = first; line <= last; ++line) {
      if (tier_has(line)) {
        auto& entry = tier_.at(line);
        tier_lru_.splice(tier_lru_.begin(), tier_lru_, entry.lru);
        insert_dram(line, false);
      } else if (dram_has(line)) {
        touch_dram(line);
      } else {
        // Copy-up of an earlier line of this request evicted it just now.
        insert_dram(line, false);
      }
    }
    ++stats_.tier_hits;
    obs_counters().tier_hits.increment();
    complete_locally(request, done, params_.tier_hit_latency,
                     params_.tier_extra_watts);
    return;
  }

  forward_miss(request, done);
}

}  // namespace tracer::storage
