// Append-only campaign journal (CSV): TRACER's one on-disk results-row
// format (docs/FORMATS.md). Completed tests stream here one row at a time,
// flushed as they land, so a crash or Ctrl-C mid-campaign loses at most the
// row being written; a restarted campaign loads the journal and skips every
// test it already holds. It is the paper's results database (§III-A1):
// tracer_cli and quickstart write their records through it too.
//
// Integrity (docs/FLEET.md): every row carries a trailing FNV-1a checksum
// over its own bytes, and opening a journal runs truncate-to-last-valid
// recovery — a torn tail (process killed mid-append) or a bit-flipped
// suffix is cut off at the last verifiable row instead of poisoning
// resume. The journal is line-oriented by contract: string fields must not
// contain newlines (append refuses them), so damage is always containable
// to a suffix.
//
// One layout: a fixed header line, then rows of exactly 19 columns (the
// TestRecord fields, doubles as %.17g, and the row checksum). A row of any
// other width is invalid.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "db/record.h"
#include "util/sync.h"

namespace tracer::db {

class CampaignJournal {
 public:
  /// What recovery did when the journal was opened.
  struct RecoveryInfo {
    std::uint64_t truncated_bytes = 0;  ///< bytes cut from the damaged tail
    std::size_t dropped_rows = 0;       ///< complete-but-invalid rows cut
    bool recovered() const { return truncated_bytes > 0; }
  };

  /// Open `path` for appending, creating it (with a header row) when
  /// missing. An existing file is scanned first and truncated to its last
  /// valid row (see RecoveryInfo). Throws std::runtime_error when the file
  /// cannot be opened.
  explicit CampaignJournal(std::filesystem::path path);

  /// Append one record and flush. Thread-safe. Throws on write failure,
  /// and std::invalid_argument when a string field contains a newline
  /// (which would break line-oriented recovery).
  void append(const TestRecord& record);

  const std::filesystem::path& path() const { return path_; }
  const RecoveryInfo& recovery() const { return recovery_; }

  /// Load every valid row from `path`. A missing file is an empty journal;
  /// rows that fail parsing or checksum verification are skipped with a
  /// warning, not fatal.
  static std::vector<TestRecord> load(const std::filesystem::path& path);

  /// True when `path` is missing, empty, or holds exactly the header line:
  /// a journal nothing has been appended to. Anything else may be someone
  /// else's data, which opening a CampaignJournal would truncate.
  static bool is_blank(const std::filesystem::path& path);

  /// Serialise one record to its journal line (no trailing newline), with
  /// the checksum column appended. Exposed for tests.
  static std::string encode_line(const TestRecord& record);

  /// Validate one raw journal line exactly as load() and open-time
  /// recovery do: it must have 19 columns, verify against its own checksum
  /// and fully parse. Fills `out` on success.
  /// Exposed for tests and the fuzz harness (fuzz/fuzz_journal_row.cpp).
  static bool parse_record_line(const std::string& line, TestRecord& out);

 private:
  std::filesystem::path path_;  ///< immutable after construction
  RecoveryInfo recovery_;       ///< immutable after construction
  std::ofstream out_ TRACER_GUARDED_BY(mutex_);
  util::Mutex mutex_;  ///< serialises append(): one row, one flush, atomically
};

/// Dedup-merging journal front end for both campaign drivers
/// (docs/FLEET.md): a restarted CampaignRunner resumes through it, and a
/// fleet coordinator merges streamed records through it while shards get
/// stolen and re-executed — so the journal must end up with EXACTLY one row
/// per test. The merge key is TestRecord::test_id, which campaigns set to
/// the test's index in the campaign matrix (stable across restarts, unlike
/// arrival order).
///
/// Thread-safe: one mutex guards the seen-set and tallies, so a runner's
/// pool threads can append concurrently.
class JournalMerger {
 public:
  /// Opens (and recovers) the journal, then indexes every existing row's
  /// test_id so resume never re-appends a completed test.
  explicit JournalMerger(std::filesystem::path path);

  /// Append iff no row with this test_id exists yet (in the loaded journal
  /// or appended since). Returns false — and writes nothing — for a
  /// duplicate: a re-executed stolen shard, or a late retransmit. A failed
  /// write throws and leaves the test_id unseen.
  bool append_unique(const TestRecord& record);

  bool contains(std::uint64_t test_id) const {
    util::MutexLock lock(mutex_);
    return seen_.count(test_id) != 0;
  }
  /// Rows found in the journal when it was opened (resume state).
  const std::vector<TestRecord>& loaded() const { return loaded_; }
  /// Rows appended this run.
  std::size_t merged() const {
    util::MutexLock lock(mutex_);
    return merged_;
  }
  /// Duplicates rejected this run.
  std::size_t deduped() const {
    util::MutexLock lock(mutex_);
    return deduped_;
  }
  std::size_t size() const {
    util::MutexLock lock(mutex_);
    return seen_.size();
  }

 private:
  CampaignJournal journal_;
  std::vector<TestRecord> loaded_;  ///< immutable after construction
  mutable util::Mutex mutex_;
  std::unordered_set<std::uint64_t> seen_ TRACER_GUARDED_BY(mutex_);
  std::size_t merged_ TRACER_GUARDED_BY(mutex_) = 0;
  std::size_t deduped_ TRACER_GUARDED_BY(mutex_) = 0;
};

}  // namespace tracer::db
