// Embedded results database. After each test, energy-efficiency and
// performance results are stored as records "for future retrievals"
// (§III-A1).
//
// Implementation: an in-memory table. Thread-safe — sweep workers insert
// concurrently. Its only on-disk form is the campaign journal's
// checksummed row format (db/journal.h, docs/FORMATS.md), written by
// export_csv and read back with CampaignJournal::load.
#pragma once

#include <string>
#include <vector>

#include "db/record.h"
#include "util/sync.h"

namespace tracer::db {

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Insert a record; assigns and returns its test_id.
  std::uint64_t insert(TestRecord record);

  std::size_t size() const;
  std::vector<TestRecord> all() const;

  /// Overwrite `path` with a campaign journal holding every record: the
  /// journal header, then one checksummed row per record. Throws when the
  /// file cannot be written.
  void export_csv(const std::string& path) const;

 private:
  mutable util::Mutex mutex_;  ///< guards the table; sweep workers insert
  std::vector<TestRecord> records_ TRACER_GUARDED_BY(mutex_);
  std::uint64_t next_id_ TRACER_GUARDED_BY(mutex_) = 1;
};

}  // namespace tracer::db
