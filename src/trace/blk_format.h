// Binary ".replay" trace format (the blktrace-derived layout of Fig 4).
//
// Layout (little-endian):
//   magic "TRCR" | u16 version | str device
//   u64 bunch_count
//   per bunch: f64 timestamp | u32 package_count
//     per package: u64 sector | u32 bytes | u8 op
//
// Sanity limits guard against loading corrupted files into memory, and the
// declared counts are additionally validated against the remaining stream
// size before any allocation — a truncated or crafted header can never
// demand more memory than the bytes actually present could encode.
// Timestamps are validated at decode time (finite, >= 0): a NaN or
// negative arrival time must never reach the DES heap or the interarrival
// arithmetic (docs/TRACE_FORMAT.md).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace tracer::trace {

inline constexpr char kBlkMagic[4] = {'T', 'R', 'C', 'R'};
inline constexpr std::uint16_t kBlkVersion = 1;

/// Extension used by the trace repository, matching the paper's ".replay".
inline constexpr const char* kBlkExtension = ".replay";

/// Format sanity caps, shared by the v1 and v2 codecs: at most 2^32
/// bunches per trace (TraceSource's u32 selection index range) and 2^20
/// packages per bunch.
inline constexpr std::uint64_t kMaxTraceBunches = 1ULL << 32;
inline constexpr std::uint32_t kMaxPackagesPerBunch = 1U << 20;

void write_blk(std::ostream& out, const Trace& trace);
void write_blk_file(const std::string& path, const Trace& trace);

/// Throws std::runtime_error on bad magic/version/truncation.
/// Reads each bunch's package array with one bulk read into a scratch
/// buffer (not per-field stream extraction) — the campaign-scale path.
Trace read_blk(std::istream& in);
Trace read_blk_file(const std::string& path);

/// Incremental v1 decoder for bounded-memory pipelines (v1 -> v2
/// conversion, large-trace synthesis checks): the header is parsed at
/// construction, then one bunch decodes per next() call — at no point is
/// more than one bunch resident. Applies the same validation as read_blk
/// (caps, stream-size bound, timestamp and op-code checks).
class BlkStreamReader {
 public:
  explicit BlkStreamReader(std::istream& in);

  const std::string& device() const { return device_; }
  std::uint64_t bunch_count() const { return bunch_count_; }

  /// Decode the next bunch into `out`; returns false when the declared
  /// count has been consumed. Throws std::runtime_error on corrupt data.
  bool next(Bunch& out);

 private:
  std::istream& in_;
  std::string device_;
  std::uint64_t bunch_count_ = 0;
  std::uint64_t next_index_ = 0;
  /// Bytes left in the stream (nullopt when unseekable); decremented as
  /// bunches decode so declared package counts are bounds-checked without
  /// re-seeking.
  std::optional<std::uint64_t> budget_;
  std::vector<unsigned char> scratch_;
};

/// Incremental v1 encoder: declares `bunch_count` up front, then streams
/// bunches one at a time — the writer half of bounded-memory conversion
/// and large-trace synthesis. finish() verifies the declared count was
/// delivered and the stream is healthy.
class BlkStreamWriter {
 public:
  BlkStreamWriter(std::ostream& out, const std::string& device,
                  std::uint64_t bunch_count);

  void add(const Bunch& bunch);
  void add(Seconds timestamp, const std::vector<IoPackage>& packages);

  /// Throws std::runtime_error if fewer/more bunches were added than
  /// declared or the underlying stream failed.
  void finish();

 private:
  std::ostream& out_;
  std::uint64_t declared_ = 0;
  std::uint64_t written_ = 0;
  bool finished_ = false;
  std::vector<unsigned char> scratch_;
};

}  // namespace tracer::trace
