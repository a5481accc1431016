#include "db/database.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "db/journal.h"
#include "util/csv.h"

namespace tracer::db {
namespace {

TestRecord sample_record(const std::string& device = "raid5-hdd6",
                         double load = 1.0) {
  TestRecord record;
  record.timestamp = "2026-07-07T00:00:00Z";
  record.device = device;
  record.trace_name = "raid5-hdd6_rs4K_rnd50_rd0.replay";
  record.request_size = 4096;
  record.random_ratio = 0.5;
  record.read_ratio = 0.0;
  record.load_proportion = load;
  record.avg_amps = 0.36;
  record.avg_volts = 220.1;
  record.avg_watts = 79.5;
  record.joules = 318.0;
  record.iops = 123.4;
  record.mbps = 0.505;
  record.avg_response_ms = 18.2;
  record.iops_per_watt = 1.552;
  record.mbps_per_kilowatt = 6.35;
  return record;
}

TEST(Database, InsertAssignsIncreasingIds) {
  Database database;
  const auto id1 = database.insert(sample_record());
  const auto id2 = database.insert(sample_record());
  EXPECT_LT(id1, id2);
  EXPECT_EQ(database.size(), 2u);
}

// The export is a campaign journal: it loads back bit-equal to the table.
TEST(Database, SaveLoadRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "tracer_db_test.journal.csv";
  Database database;
  database.insert(sample_record("hdd", 0.3));
  database.insert(sample_record("ssd", 0.7));
  database.export_csv(path.string());

  const auto loaded = CampaignJournal::load(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded, database.all());
  std::filesystem::remove(path);
}

// Every double survives the export/load round trip bit-exactly.
TEST(Database, SaveLoadPreservesFullDoublePrecision) {
  const auto path =
      std::filesystem::temp_directory_path() / "tracer_db_lossless.journal.csv";
  Database database;
  TestRecord record = sample_record("hdd", 1.0 / 3.0);
  record.joules = 123.45678912345678;
  record.avg_watts = 3.141592653589793;
  record.avg_amps = 1.25e-7;
  record.iops = 99999.000000001;
  database.insert(record);
  database.export_csv(path.string());

  const auto loaded = CampaignJournal::load(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded, database.all());
  std::filesystem::remove(path);
}

// Fail-pre-fix regression (tracer-lossless-double-format audit): the CSV
// export rounded doubles to 2-4 decimals, so external tooling re-ingesting
// the interchange file saw different measurements than the database
// holds. Every exported double must parse back bit-equal.
TEST(Database, CsvExportRoundTripsDoublesBitExactly) {
  const auto path =
      std::filesystem::temp_directory_path() / "tracer_db_lossless.csv";
  Database database;
  TestRecord record = sample_record("hdd", 1.0 / 3.0);
  record.joules = 123.45678912345678;
  record.avg_watts = 3.141592653589793;
  record.avg_amps = 1.25e-7;  // below the old %.4f floor
  record.iops = 99999.000000001;
  database.insert(record);
  database.export_csv(path.string());

  const auto rows = util::CsvReader::load(path.string());
  ASSERT_EQ(rows.size(), 2u);
  const auto& fields = rows[1];
  const TestRecord stored = database.all().at(0);
  // Column order matches the header row written by export_csv.
  EXPECT_EQ(std::stod(fields[7]), stored.load_proportion);
  EXPECT_EQ(std::stod(fields[8]), stored.avg_amps);
  EXPECT_EQ(std::stod(fields[10]), stored.avg_watts);
  EXPECT_EQ(std::stod(fields[11]), stored.joules);
  EXPECT_EQ(std::stod(fields[12]), stored.iops);
  std::filesystem::remove(path);
}

TEST(Database, OpenMissingFileIsEmpty) {
  EXPECT_TRUE(CampaignJournal::load("/nonexistent/file.journal.csv").empty());
}

TEST(Database, CsvExportHasHeaderAndRows) {
  const auto path =
      std::filesystem::temp_directory_path() / "tracer_db_test.csv";
  Database database;
  database.insert(sample_record());
  database.export_csv(path.string());
  const auto rows = util::CsvReader::load(path.string());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "test_id");
  EXPECT_EQ(rows[0].back(), "row_checksum");
  EXPECT_EQ(rows[1][2], "raid5-hdd6");
  std::filesystem::remove(path);
}

// export_csv replaces whatever was at the path instead of appending to it.
TEST(Database, CsvExportOverwritesExistingFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "tracer_db_overwrite.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "stale,content\n";
  }
  Database database;
  database.insert(sample_record());
  database.export_csv(path.string());
  database.export_csv(path.string());
  const auto loaded = CampaignJournal::load(path);
  EXPECT_EQ(loaded, database.all());
  EXPECT_EQ(util::CsvReader::load(path.string()).size(), 2u);
  std::filesystem::remove(path);
}

// A failed export throws rather than leaving a short file behind silently.
TEST(Database, CsvExportToUnwritablePathThrows) {
  const auto blocker =
      std::filesystem::temp_directory_path() / "tracer_db_not_a_dir";
  {
    std::ofstream out(blocker, std::ios::trunc);
    out << "x";
  }
  Database database;
  database.insert(sample_record());
  EXPECT_THROW(database.export_csv((blocker / "results.csv").string()),
               std::runtime_error);
  std::filesystem::remove(blocker);
}

TEST(Database, ConcurrentInsertsAreSafe) {
  Database database;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&database] {
      for (int i = 0; i < 250; ++i) database.insert(sample_record());
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(database.size(), 1000u);
  // All ids distinct.
  std::set<std::uint64_t> ids;
  for (const auto& record : database.all()) ids.insert(record.test_id);
  EXPECT_EQ(ids.size(), 1000u);
}

}  // namespace
}  // namespace tracer::db
