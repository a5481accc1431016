// Scoped replay tracing (the timeline half of obs::; metrics live in
// obs/registry.h). TRACER_SPAN("name") records a begin/duration event into a
// per-thread buffer; Tracer::write_chrome_json exports the whole timeline in
// the Chrome trace-viewer format (chrome://tracing / Perfetto "traceEvents"
// with complete "X" events), so a campaign run can be opened as a flame
// chart: per-test generate/filter/replay/measure phases across worker
// threads.
//
// Cost model — cheap enough to leave compiled in:
//   * disabled (no sink installed): one relaxed atomic load per span;
//   * enabled: two steady_clock reads plus an uncontended per-thread mutex
//     and a vector push_back.
// Span names must be string literals (or otherwise outlive the tracer):
// events store the pointer, not a copy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.h"

namespace tracer::obs {

/// One completed span: [begin_us, begin_us + dur_us] on thread `tid`,
/// microseconds since the tracer's epoch (first enable()).
struct SpanEvent {
  const char* name = nullptr;
  std::uint64_t begin_us = 0;
  std::uint64_t dur_us = 0;
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  /// Process-wide tracer (leaked singleton, like Registry::global()).
  static Tracer& global();

  /// Install the sink: spans recorded from now on are kept. Sets the epoch
  /// on first enable so timestamps start near zero.
  void enable();
  /// Remove the sink: TRACER_SPAN reverts to a no-op. Buffered events are
  /// kept until clear().
  void disable();
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Append one completed span to the calling thread's buffer. Called by
  /// Span's destructor; callers normally use TRACER_SPAN instead.
  void record(const char* name, std::uint64_t begin_us, std::uint64_t dur_us);

  /// Microseconds since the tracer epoch (steady clock).
  std::uint64_t now_us() const;

  /// Copy of all buffered events across threads (unsorted between threads).
  std::vector<SpanEvent> events() const;

  /// Events dropped because a thread buffer hit its cap.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Drop all buffered events (thread buffers stay registered).
  void clear();

  /// Chrome trace-viewer JSON: {"traceEvents":[{"ph":"X",...}, ...]}.
  std::string to_chrome_json() const;
  void write_chrome_json(const std::filesystem::path& path) const;

 private:
  Tracer() = default;

  struct ThreadBuffer {
    util::Mutex mutex;  ///< uncontended on the hot path; drain() takes it too
    std::vector<SpanEvent> events TRACER_GUARDED_BY(mutex);
    std::uint32_t tid = 0;  ///< immutable after registration
  };

  ThreadBuffer& local_buffer();

  /// Cap per thread: 2^20 events of sizeof(SpanEvent) = 32 B on 64-bit
  /// hosts, so at most 32 MiB per recording thread. Spans are kept until
  /// clear(), so a traced run's memory grows with its length up to this
  /// cap; beyond it events are counted in dropped_ instead — a trace that
  /// big is unusable in the viewer anyway.
  static constexpr std::size_t kMaxEventsPerThread = 1u << 20;

  std::atomic<bool> enabled_{false};
  /// Epoch publication: epoch_ is written once, under buffers_mutex_,
  /// BEFORE the release store to epoch_set_; now_us() reads it only after
  /// an acquire load of epoch_set_ observes true. (The earlier
  /// exchange-then-write order let a concurrent now_us() read a
  /// half-written time_point — caught by the TSan suite.)
  std::atomic<bool> epoch_set_{false};
  std::chrono::steady_clock::time_point epoch_{};
  std::atomic<std::uint32_t> next_tid_{1};
  std::atomic<std::uint64_t> dropped_{0};
  mutable util::Mutex buffers_mutex_;  ///< guards buffers_ registration list
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_
      TRACER_GUARDED_BY(buffers_mutex_);
};

/// RAII span: times its scope and reports to Tracer::global(). When the
/// tracer is disabled at construction, the whole object is a no-op (the
/// destructor checks a cached nullptr, not the tracer again, so a span that
/// straddles disable() still completes consistently).
class Span {
 public:
  explicit Span(const char* name) noexcept {
    Tracer& tracer = Tracer::global();
    if (tracer.enabled()) {
      name_ = name;
      begin_us_ = tracer.now_us();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      Tracer& tracer = Tracer::global();
      tracer.record(name_, begin_us_, tracer.now_us() - begin_us_);
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t begin_us_ = 0;
};

}  // namespace tracer::obs

#define TRACER_SPAN_CONCAT_IMPL(a, b) a##b
#define TRACER_SPAN_CONCAT(a, b) TRACER_SPAN_CONCAT_IMPL(a, b)
/// Scoped span covering the rest of the enclosing block; `name` must be a
/// string literal.
#define TRACER_SPAN(name) \
  ::tracer::obs::Span TRACER_SPAN_CONCAT(tracer_span_, __LINE__)(name)
