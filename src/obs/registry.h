// Observability metrics layer (the measurement half of obs::; spans live in
// obs/span.h). TRACER's whole point is measurement — the paper's evaluation
// host streams per-cycle IOPS/MBPS/Watts to a GUI and stores every record
// for later queries (§III) — and the replay/campaign machinery itself needs
// the same treatment: named counters and gauges that the hot paths can bump
// without taking a shared lock.
//
// Concurrency model: instrument handles returned by Registry are stable for
// the registry's lifetime, so callers look a name up once (a mutex-guarded
// map insert) and afterwards touch only their own std::atomic — worker
// threads in ThreadPool::parallel_for never contend on the registry lock in
// steady state. Hot call sites cache the handle in a function-local static.
//
// Naming scheme (docs/OBSERVABILITY.md): dot-separated, lower-case,
// "<subsystem>.<object>.<verb-or-unit>", e.g. "host.peak_cache.hits",
// "replay.packages", "host.phase.filter.us".
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

namespace tracer::obs {

/// Monotonic event count. add() is a single relaxed fetch_add — safe and
/// contention-tolerant from any thread.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or running-max) level, e.g. a queue depth or a skew bound.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Raise to `v` if larger (CAS loop; rarely contended in practice).
  void update_max(double v) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Bin geometry of a log-scale histogram over [lo, hi): bin edges are
/// geometrically spaced, `bins_per_decade` per factor of ten, so relative
/// resolution is uniform across the range — sub-millisecond SSD latencies
/// and multi-second HDD stragglers both land in meaningfully narrow bins (a
/// linear 5 ms grid cannot resolve the former at all). Samples below lo
/// (and non-positive values) clamp into the first bin, samples >= hi into
/// the last, so totals are conserved. core::PerfMonitor keeps its response
/// time bins on this scale, with plain counts.
class LogScale {
 public:
  LogScale(double lo, double hi, std::size_t bins_per_decade = 40);

  /// Bin of `x`: floor((log10(x) - log10(lo)) * bins_per_decade), clamped
  /// into [0, bin_count()); non-positive values and NaN land in bin 0. The
  /// result is that formula's, bit for bit, but no log10 is taken: a table
  /// indexed by x's exponent and top mantissa bits names the bin of the
  /// cell's first double, and comparing x with the next bin's first double
  /// finishes (one comparison while a cell, 1/64 of an octave, is narrower
  /// than a bin: up to 148 bins per decade). Inline: once per I/O
  /// completion on the replay hot path.
  std::size_t index(double x) const noexcept {
    if (!(x > lo_)) return 0;
    if (x >= edges_[bin_count_ - 1]) return bin_count_ - 1;
    std::size_t i = cell_bin_[cell(x) - first_cell_];
    while (x >= edges_[i + 1]) ++i;
    return i;
  }

  std::size_t bin_count() const { return bin_count_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const { return bin_lo(i + 1); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Value at quantile q in [0,1] of `total` samples, bin i holding
  /// `count(i)`; geometrically interpolated within the bin. Relative error
  /// is bounded by one bin ratio (10^(1/bins_per_decade)).
  template <typename CountOf>
  double percentile(double q, std::uint64_t total, CountOf count) const {
    if (total == 0) return lo_;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t i = 0; i < bin_count_; ++i) {
      const auto n = static_cast<double>(count(i));
      if (cum + n >= target) {
        const double frac = n > 0.0 ? (target - cum) / n : 0.0;
        return bin_lo(i) * std::pow(bin_hi(i) / bin_lo(i), frac);
      }
      cum += n;
    }
    return hi_;
  }

 private:
  static constexpr int kCellBits = 6;  ///< mantissa bits per table cell
  /// Table cell of a positive double: its exponent and top mantissa bits.
  static std::uint64_t cell(double x) noexcept {
    return std::bit_cast<std::uint64_t>(x) >> (52 - kCellBits);
  }

  double lo_;
  double hi_;
  double log_lo_;
  double bins_per_log10_;  ///< bins per log10 unit
  std::size_t bin_count_;
  /// edges_[i]: the smallest double in bin i (edges_[0] = lo, and a +inf
  /// sentinel at edges_[bin_count_]).
  std::vector<double> edges_;
  std::uint64_t first_cell_ = 0;        ///< cell(lo)
  std::vector<std::uint32_t> cell_bin_;  ///< bin of each cell's first double
};

/// Point-in-time copy of every instrument, safe to serialise or diff while
/// the instruments keep counting. Entries are sorted by name (the registry
/// map is ordered), so exports are canonical.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;

  /// Counter value by name, or `fallback` if the counter never existed.
  std::uint64_t counter_or(std::string_view name,
                           std::uint64_t fallback = 0) const;
  double gauge_or(std::string_view name, double fallback = 0.0) const;

  std::string to_json() const;
  std::string to_csv() const;
  void write_json(const std::filesystem::path& path) const;
  void write_csv(const std::filesystem::path& path) const;
};

/// Named instrument registry. Lookup creates on first use; the returned
/// reference is stable until reset_instruments()/process exit, so callers
/// cache it. Registry::global() is the process-wide instance every
/// instrumented subsystem reports to; independent instances exist only so
/// tests can exercise the registry in isolation.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry (leaked singleton: safe to touch from static
  /// destructors and function-local static handles).
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  Snapshot snapshot() const;

  /// Zero every instrument (names and handles stay valid). Tests use this;
  /// production code should diff snapshots instead.
  void reset_values();

 private:
  // mutex_ guards the name->instrument maps only. The instruments
  // themselves are atomic-based and lock-free; handles returned to callers
  // stay valid (unique_ptr targets never move), which is why the hot path
  // never re-enters this lock.
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      TRACER_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      TRACER_GUARDED_BY(mutex_);
};

/// Adds the scope's wall-clock duration (microseconds) to `micros` and one
/// to `calls` on destruction — the cheap building block behind the
/// per-phase timing breakdown (host.phase.*). ~40 ns per scope; safe to
/// leave compiled in on per-test granularity paths.
class ScopedTimer {
 public:
  ScopedTimer(Counter& micros, Counter& calls) noexcept;
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Counter& micros_;
  Counter& calls_;
  std::uint64_t begin_ns_;
};

}  // namespace tracer::obs
