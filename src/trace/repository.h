// Trace repository (§III-A2): a directory of .replay files whose names
// encode the collection parameters — "the name of each trace file implies
// important information such as storage device type, request size, random
// rate, and read rate".
//
// Naming scheme:  <device>_rs<size>_rnd<pct>_rd<pct>.replay
// e.g.            raid5-hdd6_rs4K_rnd50_rd0.replay
//
// The encoding is a verified bijection: file_name() parses its own output
// back and throws std::invalid_argument when the key does not survive the
// round trip (empty device, path separators, out-of-range percents), so a
// stored trace can never become unlistable or come back under a different
// key.
//
// store() writes a private temporary file in the same directory and renames
// it over the entry, so a reader in another thread or process sees either
// the previous complete trace or the new one, never a partial write.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace tracer::trace {

/// The parameters a repository file name encodes.
struct TraceKey {
  std::string device;       ///< storage device type label
  Bytes request_size = 0;   ///< nominal request size
  int random_pct = 0;       ///< random ratio, percent 0..100
  int read_pct = 0;         ///< read ratio, percent 0..100

  /// Encode as a v1 file name. Throws std::invalid_argument when the key
  /// cannot round-trip through parse() (verified on every call).
  std::string file_name() const;
  /// Parse a file name produced by file_name(); nullopt when it does not
  /// follow the scheme (foreign files in the directory are skipped, not
  /// errors).
  static std::optional<TraceKey> parse(const std::string& file_name);

  friend bool operator==(const TraceKey&, const TraceKey&) = default;
};

class TraceRepository {
 public:
  /// Opens (and creates if needed) the repository directory.
  explicit TraceRepository(std::filesystem::path directory);

  const std::filesystem::path& directory() const { return directory_; }

  /// Store a trace under its key, atomically replacing an existing entry.
  /// On failure the temporary file is removed and the entry is unchanged.
  void store(const TraceKey& key, const Trace& trace) const;

  bool contains(const TraceKey& key) const;

  /// Load a trace; throws std::runtime_error when missing or corrupt.
  Trace load(const TraceKey& key) const;

  /// All keys present, sorted by file name (deterministic sweeps).
  std::vector<TraceKey> list() const;

  std::filesystem::path path_for(const TraceKey& key) const;

 private:
  std::filesystem::path directory_;
};

}  // namespace tracer::trace
