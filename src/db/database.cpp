#include "db/database.h"

#include <filesystem>

#include "db/journal.h"

namespace tracer::db {

std::uint64_t Database::insert(TestRecord record) {
  util::MutexLock lock(mutex_);
  record.test_id = next_id_++;
  records_.push_back(std::move(record));
  return records_.back().test_id;
}

std::size_t Database::size() const {
  util::MutexLock lock(mutex_);
  return records_.size();
}

std::vector<TestRecord> Database::all() const {
  util::MutexLock lock(mutex_);
  return records_;
}

void Database::export_csv(const std::string& path) const {
  const std::vector<TestRecord> records = all();
  std::filesystem::remove(path);
  CampaignJournal journal(path);
  for (const auto& record : records) journal.append(record);
}

}  // namespace tracer::db
