// TraceSource — the one currency of the trace pipeline.
//
// Every pipeline stage (ProportionalFilter, InterarrivalScaler,
// ReplayEngine, compute_stats, EvaluationHost) takes a TraceSource: an
// ordered sequence of bunches addressed by position. Every implementation
// stores *raw* trace timestamps and a single accumulated time divisor, and
// `timestamp(i)` is always exactly `raw_timestamp(i) / time_divisor()`. Three implementations exist:
//
//   * TraceView — the in-memory leaf: every bunch of one immutable Trace.
//   * ColumnarSource (trace/columnar_format.h) — the on-disk leaf over a
//     mmap'd v2 file, streamed through a bounded decode window.
//   * TraceSlice — the only select/scale decorator. The filter and the
//     scaler build these, so filtering a multi-GB columnar trace costs one
//     u32 index vector (O(selection)), never a decoded copy.
//
// `materialize()` is the only operation that copies bunches.
//
// Because both leaves feed the identical replay loop with the identical
// arithmetic, an in-memory and an on-disk replay of the same trace produce
// bit-identical metrics — tests/test_trace_source.cpp holds that line.
//
// Bounded memory: `packages(i)` may be backed by a sliding decode window
// (ColumnarSource); the returned reference stays valid only until the next
// `packages()` call on a different position. The replay engine consumes
// positions strictly in order and never holds a reference across bunches,
// so a whole-trace replay touches at most one window of RAM at a time.
//
// Thread model: a window-backed source is confined to the replaying thread
// (window caches are mutated under const). Share the underlying immutable
// data (Trace, ColumnarTraceReader) across threads instead, and give each
// replay its own source object — EvaluationHost hands each test its own
// TraceView over the shared peak trace. TraceView and TraceSlices over it
// hold no mutable state, so they are safe to read concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace tracer::trace {

class TraceSource {
 public:
  /// Selection index type (formats cap traces at 2^32 bunches, so
  /// positions always fit).
  using Index = std::uint32_t;

  virtual ~TraceSource() = default;

  virtual const std::string& device() const = 0;

  /// Number of selected bunches.
  virtual std::size_t bunch_count() const = 0;

  /// Underlying (unscaled) arrival time of the i-th selected bunch.
  virtual Seconds raw_timestamp(std::size_t i) const = 0;

  /// Accumulated intensity divisor (timestamps are divided by it).
  virtual double time_divisor() const { return 1.0; }

  /// Packages of the i-th selected bunch. May repoint an internal decode
  /// window: the reference is invalidated by the next packages() call for
  /// a position outside the current window.
  virtual const std::vector<IoPackage>& packages(std::size_t i) const = 0;

  /// Total packages over the selection (may stream; O(selection) worst
  /// case, O(1) for whole-file columnar sources).
  virtual std::uint64_t package_count() const = 0;

  /// Total payload bytes over the selection.
  virtual Bytes total_bytes() const = 0;

  /// Fraction of selected packages that are reads.
  virtual double read_ratio() const = 0;

  /// Replay-clock arrival time of the i-th selected bunch.
  Seconds timestamp(std::size_t i) const {
    return raw_timestamp(i) / time_divisor();
  }

  /// Duration through the last selected bunch, in the scaled time domain.
  Seconds duration() const {
    const std::size_t count = bunch_count();
    return count == 0 ? 0.0 : timestamp(count - 1);
  }

  bool empty() const { return bunch_count() == 0; }

  /// Mean package size in bytes over the selection (0 when empty).
  double mean_request_size() const;
};

/// The in-memory leaf: every bunch of a `shared_ptr<const Trace>`, at unit
/// time scale. Ownership rules:
///   * The underlying trace is immutable shared state, safe to read from
///     many replay threads at once (EvaluationHost's peak-trace cache
///     relies on this).
///   * `borrowed()` makes a non-owning view of a caller-kept Trace; the
///     caller must keep the trace alive for the view's lifetime and for
///     every source derived from it.
///   * Views are cheap to copy (one shared_ptr).
class TraceView final : public TraceSource {
 public:
  /// An invalid view: no trace, no bunches.
  TraceView() = default;

  explicit TraceView(std::shared_ptr<const Trace> trace);

  /// Non-owning view of `trace`; the caller guarantees `trace` outlives
  /// the view and every source derived from it.
  static TraceView borrowed(const Trace& trace);

  /// View that takes ownership of a materialized trace.
  static TraceView owning(Trace trace);

  bool valid() const { return trace_ != nullptr; }

  const std::string& device() const override;
  std::size_t bunch_count() const override {
    return trace_ == nullptr ? 0 : trace_->bunches.size();
  }
  Seconds raw_timestamp(std::size_t i) const override {
    return trace_->bunches[i].timestamp;
  }
  const std::vector<IoPackage>& packages(std::size_t i) const override {
    return trace_->bunches[i].packages;
  }
  std::uint64_t package_count() const override {
    return trace_ == nullptr ? 0 : trace_->package_count();
  }
  Bytes total_bytes() const override {
    return trace_ == nullptr ? 0 : trace_->total_bytes();
  }
  double read_ratio() const override {
    return trace_ == nullptr ? 0.0 : trace_->read_ratio();
  }

 private:
  std::shared_ptr<const Trace> trace_;
};

/// Lazy selection/scaling decorator over any TraceSource — the one
/// select/scale implementation. Composition nests: a slice of a slice
/// addresses the inner slice's positions, and divisors multiply in
/// application order.
class TraceSlice final : public TraceSource {
 public:
  /// Restrict `base` to `positions` — strictly increasing indices into
  /// base's current selection.
  static std::shared_ptr<const TraceSource> select(
      std::shared_ptr<const TraceSource> base, std::vector<Index> positions);

  /// Multiply replay intensity by `factor` (> 0): the accumulated divisor
  /// becomes `base->time_divisor() * factor`.
  static std::shared_ptr<const TraceSource> scaled(
      std::shared_ptr<const TraceSource> base, double factor);

  const std::string& device() const override { return base_->device(); }
  std::size_t bunch_count() const override {
    return select_all_ ? base_->bunch_count() : selection_.size();
  }
  Seconds raw_timestamp(std::size_t i) const override {
    return base_->raw_timestamp(map(i));
  }
  double time_divisor() const override { return divisor_; }
  const std::vector<IoPackage>& packages(std::size_t i) const override {
    return base_->packages(map(i));
  }
  std::uint64_t package_count() const override;
  Bytes total_bytes() const override;
  double read_ratio() const override;

 private:
  TraceSlice(std::shared_ptr<const TraceSource> base,
             std::vector<Index> positions, bool select_all, double divisor);

  std::size_t map(std::size_t i) const {
    return select_all_ ? i : selection_[i];
  }

  std::shared_ptr<const TraceSource> base_;
  std::vector<Index> selection_;  ///< meaningful when !select_all_
  bool select_all_ = false;
  double divisor_ = 1.0;  ///< full accumulated divisor (base included)
};

/// Share a view as a source (the common entry into the filter/scale
/// pipeline for in-memory traces).
std::shared_ptr<const TraceSource> make_source(TraceView view);

/// Deep-copy a source's selection into a plain Trace with remapped
/// timestamps — the only copying operation of the pipeline. Only call when
/// the result is known to fit in memory.
Trace materialize(const TraceSource& source);

}  // namespace tracer::trace
