// Block-level I/O request/completion types shared by devices, the RAID
// engine, and the replay core. Mirrors the blktrace IO_package: starting
// sector, size in bytes, and operation type (§IV-A, Fig 4).
#pragma once

#include <cstdint>

#include "util/types.h"

namespace tracer::storage {

struct IoRequest {
  std::uint64_t id = 0;  ///< caller-assigned correlation id
  Sector sector = 0;     ///< starting 512-byte sector
  Bytes bytes = 0;       ///< request size in bytes
  OpType op = OpType::kRead;

  Sector end_sector() const { return sector + (bytes + kSectorSize - 1) / kSectorSize; }
};

struct IoCompletion {
  std::uint64_t id = 0;
  Seconds submit_time = 0.0;
  Seconds finish_time = 0.0;
  Bytes bytes = 0;
  OpType op = OpType::kRead;

  Seconds latency() const { return finish_time - submit_time; }
};

/// True when `bytes` bytes starting at `start` units of `unit` bytes lie
/// inside a device of `capacity` bytes. Overflow-safe: `start * unit` and
/// the end offset are never formed unless they fit, so an external sector
/// near 2^64 cannot wrap onto a small address and pass.
constexpr bool range_fits(std::uint64_t start, Bytes bytes, Bytes capacity,
                          Bytes unit = kSectorSize) {
  return start <= capacity / unit && bytes <= capacity - start * unit;
}

/// Receiver of routed completions. A submitter implements on_complete once
/// and tells its requests apart by the `tag` it chose at submit time.
class IoSink {
 public:
  virtual void on_complete(std::uint64_t tag,
                           const IoCompletion& completion) = 0;

 protected:
  ~IoSink() = default;
};

/// How a device reports a finished request: a route `{sink, tag}` that
/// fires `sink->on_complete(tag, completion)`. Plain data: copying a route
/// copies two words and owns nothing, so a request moves through queues,
/// batches and in-flight slots as a plain copy. Closures (tests, benches,
/// examples) go through a storage::CallbackSink, which owns them and hands
/// out routes.
class CompletionCallback {
 public:
  CompletionCallback() = default;

  /// Route to `sink` (borrowed: it must outlive the request) with `tag`.
  CompletionCallback(IoSink& sink, std::uint64_t tag) noexcept
      : sink_(&sink), tag_(tag) {}

  explicit operator bool() const { return sink_ != nullptr; }

  void operator()(const IoCompletion& completion) const {
    sink_->on_complete(tag_, completion);
  }

  bool operator==(const CompletionCallback&) const = default;

 private:
  IoSink* sink_ = nullptr;
  std::uint64_t tag_ = 0;
};

/// A request a device holds until it completes.
struct PendingIo {
  IoRequest request;
  CompletionCallback done;
  Seconds submit_time = 0.0;
};

}  // namespace tracer::storage
