// Columnar on-disk trace format v2 (".replay2") — the streaming,
// bounded-memory sibling of the v1 ".replay" row format.
//
// Where v1 interleaves bunches row by row (so reading bunch N means
// decoding everything before it), v2 stores the trace as structure-of-
// arrays segments, each contiguous and mmap-able, with a per-bunch index:
//
//   offset 0: magic "TRC2" | u16 version (=2) | u16 reserved (=0)
//   8:        timestamps   bunch_count × f64      bunch arrival seconds
//             pkg_offsets  (bunch_count+1) × u64  prefix sums: packages of
//                                                 bunch i live at
//                                                 [off[i], off[i+1])
//             sectors      package_count × u64
//             bytes        package_count × u32
//             ops          package_count × u8     0 = read, 1 = write
//   footer:   str device | u64 bunch_count | u64 package_count
//             | u64 × 5 segment offsets (timestamps, pkg_offsets, sectors,
//               bytes, ops)
//   trailer:  u64 footer_offset | magic "2CRT"    (fixed 12 bytes at EOF)
//
// Everything is little-endian (util/binary_io conventions). The footer
// lives at the end so the writer can stream segments without knowing the
// counts up front; the fixed trailer makes it findable. Timestamps are
// stored as raw f64 bit patterns, so a v1 -> v2 -> replay round trip is
// bit-identical to replaying the v1 trace directly.
//
// The pkg_offsets segment is the per-bunch index: any bunch's packages are
// O(1) addressable, which is what gives ProportionalFilter its
// O(selection) cost on on-disk traces. ColumnarTraceReader validates the
// whole skeleton at open (magic, version, counts vs file size, segment
// layout, offset monotonicity) before exposing any data; per-bunch payload
// (timestamps, op codes) is validated at decode time, exactly like v1.
//
// Versioning policy: the u16 after the magic is the format version; readers
// reject anything but the version they implement (no silent forward
// compatibility — docs/TRACE_FORMAT.md).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "trace/trace_source.h"
#include "util/mmap_file.h"

namespace tracer::trace {

inline constexpr char kColumnarMagic[4] = {'T', 'R', 'C', '2'};
inline constexpr char kColumnarTrailerMagic[4] = {'2', 'C', 'R', 'T'};
inline constexpr std::uint16_t kColumnarVersion = 2;

/// Streaming v2 encoder with bounded memory: each segment spills to its
/// own temporary file as bunches arrive, and finish() stitches them into
/// the final layout. Converting a multi-GB v1 trace never materializes it.
class ColumnarWriter {
 public:
  /// Starts a write to `path` (created/truncated by finish()). Temporary
  /// segment files live next to the destination.
  ColumnarWriter(std::string path, std::string device);
  ~ColumnarWriter();

  ColumnarWriter(const ColumnarWriter&) = delete;
  ColumnarWriter& operator=(const ColumnarWriter&) = delete;

  /// Append one bunch. Throws std::runtime_error on I/O failure and
  /// std::invalid_argument on non-encodable data (non-finite or negative
  /// timestamp, too many packages, too many bunches).
  void add(const Bunch& bunch);
  void add(Seconds timestamp, const std::vector<IoPackage>& packages);

  std::uint64_t bunch_count() const { return bunch_count_; }
  std::uint64_t package_count() const { return package_count_; }

  /// Assemble the final file. Must be called exactly once; throws on any
  /// I/O failure (the destination is removed on failure).
  void finish();

 private:
  void append_segment(std::ofstream& out, std::size_t index);
  void cleanup() noexcept;

  std::string path_;
  std::string device_;
  std::string temp_paths_[5];
  std::ofstream segments_[5];  ///< timestamps, offsets, sectors, bytes, ops
  std::uint64_t bunch_count_ = 0;
  std::uint64_t package_count_ = 0;
  bool finished_ = false;
};

/// Whole-trace convenience encoder (tests, small traces). Streams through
/// ColumnarWriter.
void write_columnar_file(const std::string& path, const Trace& trace);

/// Memory-mapped v2 decoder. Opening validates the file skeleton; the
/// segments stay on disk and windows decode on demand, so the resident
/// cost of a reader is O(window), not O(trace). Immutable after open —
/// safe to share across threads (give each replay its own ColumnarSource).
class ColumnarTraceReader {
 public:
  /// Opens and validates; throws std::runtime_error on any malformed,
  /// truncated, or implausible file.
  explicit ColumnarTraceReader(const std::string& path);

  const std::string& device() const { return device_; }
  std::uint64_t bunch_count() const { return bunch_count_; }
  std::uint64_t package_count() const { return package_count_; }

  /// Arrival time of bunch i, validated (finite, >= 0) at decode time.
  Seconds timestamp(std::uint64_t i) const;

  std::uint32_t packages_in_bunch(std::uint64_t i) const;

  /// Decode bunches [first, first+count) into `out` (replaced). Validates
  /// op codes and timestamps; throws std::runtime_error on corrupt data.
  void read_window(std::uint64_t first, std::uint64_t count,
                   std::vector<Bunch>& out) const;

  /// Whole-selection aggregates via sequential segment scans.
  Bytes total_bytes() const;
  double read_ratio() const;

  /// Advise the kernel that the pages backing bunches [first, first+count)
  /// have been consumed (streaming replay keeps RSS bounded this way).
  void advise_consumed(std::uint64_t first, std::uint64_t count) const;

 private:
  std::uint64_t pkg_offset(std::uint64_t i) const;

  util::MappedFile map_;
  std::string device_;
  std::uint64_t bunch_count_ = 0;
  std::uint64_t package_count_ = 0;
  std::uint64_t timestamps_off_ = 0;
  std::uint64_t offsets_off_ = 0;
  std::uint64_t sectors_off_ = 0;
  std::uint64_t bytes_off_ = 0;
  std::uint64_t ops_off_ = 0;
};

/// Bounded-memory TraceSource over a shared reader: a sliding window of
/// decoded bunches (default 4096) follows the replay cursor; consumed
/// windows are madvise'd out of the resident set when `evict_consumed`.
/// Confined to one thread (the window cache mutates under const).
class ColumnarSource final : public TraceSource {
 public:
  struct Options {
    std::size_t window_bunches = 4096;
    bool evict_consumed = true;
  };

  explicit ColumnarSource(std::shared_ptr<const ColumnarTraceReader> reader);
  ColumnarSource(std::shared_ptr<const ColumnarTraceReader> reader,
                 Options options);

  const std::string& device() const override { return reader_->device(); }
  std::size_t bunch_count() const override {
    return static_cast<std::size_t>(reader_->bunch_count());
  }
  Seconds raw_timestamp(std::size_t i) const override {
    return reader_->timestamp(i);
  }
  const std::vector<IoPackage>& packages(std::size_t i) const override;
  std::uint64_t package_count() const override {
    return reader_->package_count();
  }
  Bytes total_bytes() const override { return reader_->total_bytes(); }
  double read_ratio() const override { return reader_->read_ratio(); }

  const std::shared_ptr<const ColumnarTraceReader>& reader() const {
    return reader_;
  }

 private:
  void load_window(std::size_t first) const;

  std::shared_ptr<const ColumnarTraceReader> reader_;
  Options options_;
  mutable std::vector<Bunch> window_;
  mutable std::uint64_t window_begin_ = 0;
  mutable std::uint64_t window_end_ = 0;  ///< [begin, end); empty when ==
};

/// Open a v2 file as a streaming source (shared reader + fresh window).
std::shared_ptr<const TraceSource> open_columnar_source(
    const std::string& path, ColumnarSource::Options options = {});

/// v1 -> v2 conversion with bounded memory (streams bunch by bunch).
/// Returns the number of bunches converted.
std::uint64_t convert_blk_to_columnar(const std::string& v1_path,
                                      const std::string& v2_path);

/// v2 -> v1 conversion with bounded memory (windowed decode, streamed
/// re-encode). Returns the number of bunches converted.
std::uint64_t convert_columnar_to_blk(const std::string& v2_path,
                                      const std::string& v1_path);

}  // namespace tracer::trace
