// Crash-safety regression tests for the checksummed campaign journal
// (docs/FLEET.md): per-row FNV-1a checksums, truncate-to-last-valid-row
// recovery at EVERY possible tear point, bit-flip detection at every byte
// of the last record, rejection of other row widths, and the JournalMerger
// dedup used by both campaign drivers.
//
// The Database cases check the journal as the results database (§III-A1)
// that tracer_cli and quickstart write: a fresh file per session, rows that
// load back bit-exactly.
#include "db/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/csv.h"
#include "util/hash.h"

namespace tracer::db {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tracer_journal_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path path(const char* name = "journal.csv") const {
    return dir_ / name;
  }

  fs::path dir_;
};

TestRecord make_record(std::uint64_t id) {
  TestRecord r;
  r.test_id = id;
  r.timestamp = "2026-08-08T12:00:00";
  r.device = "raid5-hdd6";
  r.trace_name = "trace_" + std::to_string(id);
  r.request_size = 4096 + id;
  r.random_ratio = 0.5;
  r.read_ratio = 0.67;
  r.load_proportion = 0.25 + 0.0001 * static_cast<double>(id);
  r.avg_amps = 1.25;
  r.avg_volts = 12.0;
  r.avg_watts = 15.0;
  r.joules = 450.0;
  r.iops = 1000.0 + static_cast<double>(id);
  r.mbps = 80.5;
  r.avg_response_ms = 3.125;
  r.iops_per_watt = 66.7;
  r.mbps_per_kilowatt = 5366.0;
  return r;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST_F(JournalTest, RoundTripsRecordsThroughChecksummedRows) {
  {
    CampaignJournal journal(path());
    EXPECT_FALSE(journal.recovery().recovered());
    for (int i = 0; i < 5; ++i) journal.append(make_record(i));
  }
  const auto rows = CampaignJournal::load(path());
  ASSERT_EQ(rows.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(rows[i].test_id, i);
    EXPECT_EQ(rows[i].trace_name, "trace_" + std::to_string(i));
  }
}

// The core crash-safety property: a process killed mid-append tears the
// file at an arbitrary byte. For EVERY tear point inside the last record,
// reopening must recover to exactly the previous records and stay
// appendable.
TEST_F(JournalTest, RecoversFromTruncationAtEveryByteOfLastRecord) {
  std::uint64_t before = 0;
  {
    CampaignJournal journal(path());
    for (int i = 0; i < 3; ++i) journal.append(make_record(i));
    before = fs::file_size(path());
    journal.append(make_record(3));
  }
  const std::uint64_t after = fs::file_size(path());
  const std::string full = read_file(path());
  ASSERT_GT(after, before);

  for (std::uint64_t cut = before; cut < after; ++cut) {
    const fs::path p = path("torn.csv");
    write_file(p, full.substr(0, cut));
    {
      CampaignJournal reopened(p);
      if (cut == before) {
        // Tear landed exactly on the previous row boundary: nothing to do.
        EXPECT_FALSE(reopened.recovery().recovered()) << "cut=" << cut;
      } else {
        EXPECT_TRUE(reopened.recovery().recovered()) << "cut=" << cut;
        EXPECT_EQ(reopened.recovery().truncated_bytes, cut - before)
            << "cut=" << cut;
      }
      auto rows = CampaignJournal::load(p);
      ASSERT_EQ(rows.size(), 3u) << "cut=" << cut;
      EXPECT_EQ(rows.back().test_id, 2u) << "cut=" << cut;
      // The recovered journal must remain appendable at the right offset.
      reopened.append(make_record(99));
    }
    auto rows = CampaignJournal::load(p);
    ASSERT_EQ(rows.size(), 4u) << "cut=" << cut;
    EXPECT_EQ(rows.back().test_id, 99u) << "cut=" << cut;
  }
}

// A bit flip anywhere in the last record (data, checksum column, or its
// newline) must fail validation and be cut off by recovery — FNV-1a over
// the whole line leaves no unprotected byte.
TEST_F(JournalTest, DetectsBitFlipAtEveryByteOfLastRecord) {
  std::uint64_t before = 0;
  {
    CampaignJournal journal(path());
    for (int i = 0; i < 3; ++i) journal.append(make_record(i));
    before = fs::file_size(path());
    journal.append(make_record(3));
  }
  const std::string full = read_file(path());

  for (std::size_t offset = before; offset < full.size(); ++offset) {
    const fs::path p = path("flipped.csv");
    std::string damaged = full;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x10);
    write_file(p, damaged);
    CampaignJournal reopened(p);
    EXPECT_TRUE(reopened.recovery().recovered()) << "offset=" << offset;
    auto rows = CampaignJournal::load(p);
    ASSERT_EQ(rows.size(), 3u) << "offset=" << offset;
    EXPECT_EQ(rows.back().test_id, 2u) << "offset=" << offset;
  }
}

// Damage in the MIDDLE invalidates everything after it: append-only row
// boundaries downstream of a corrupt byte cannot be trusted, so recovery is
// a prefix property.
TEST_F(JournalTest, MidFileDamageCutsEverythingAfterIt) {
  {
    CampaignJournal journal(path());
    for (int i = 0; i < 4; ++i) journal.append(make_record(i));
  }
  std::string bytes = read_file(path());
  // Find the second record row and flip a byte inside it.
  std::size_t line_start = 0;
  for (int skipped = 0; skipped < 2; ++skipped) {  // header + record 0
    line_start = bytes.find('\n', line_start) + 1;
  }
  bytes[line_start + 5] = static_cast<char>(bytes[line_start + 5] ^ 0x01);
  write_file(path(), bytes);

  CampaignJournal reopened(path());
  EXPECT_TRUE(reopened.recovery().recovered());
  EXPECT_EQ(reopened.recovery().dropped_rows, 3u);
  auto rows = CampaignJournal::load(path());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].test_id, 0u);
}

TEST_F(JournalTest, LegacyWidthRowsAreRejected) {
  // Rows without the checksum column (18 fields) or also without
  // power_valid (17) are not journal rows: nothing verifies them.
  const std::string header =
      "test_id,timestamp,device,trace,request_size,random_ratio,read_ratio,"
      "load_proportion,avg_amps,avg_volts,avg_watts,joules,iops,mbps,"
      "avg_response_ms,iops_per_watt,mbps_per_kilowatt,power_valid\n";
  const std::string legacy17 =
      "7,2025-01-01T00:00:00,hdd,old_trace,4096,0.5000,0.5000,0.2500,"
      "1.0000,12.00,12.000,360.000,100.00,0.800,5.000,8.3333,66.667";
  const std::string legacy18 = legacy17 + ",1";
  TestRecord scratch;
  EXPECT_FALSE(CampaignJournal::parse_record_line(legacy17, scratch));
  EXPECT_FALSE(CampaignJournal::parse_record_line(legacy18, scratch));

  write_file(path(), header + legacy18 + "\n" + legacy17 + "\n");
  EXPECT_TRUE(CampaignJournal::load(path()).empty());
}

TEST_F(JournalTest, RowsWithPowerValidZeroStillLoad) {
  // Rows written when the power_valid column could still be 0 (a test
  // whose external power reading was lost). Power is now always metered in
  // process, so the column is always written as 1, but these rows must
  // still load, with the 1-rows re-encoding to the same bytes.
  const std::string header =
      "test_id,timestamp,device,trace,request_size,random_ratio,read_ratio,"
      "load_proportion,avg_amps,avg_volts,avg_watts,joules,iops,mbps,"
      "avg_response_ms,iops_per_watt,mbps_per_kilowatt,power_valid,"
      "row_checksum\n";
  const std::string valid_row =
      "0,2026-10-01T00:00:00Z,raid5-hdd6,web,4096,0.5,0.25,"
      "0.10000000000000001,0.375,220,82.5,330,100,0.5,7.25,1.5,6,1,"
      "3bdf61da5dcd5449";
  const std::string zero_row =
      "1,2026-10-01T00:00:00Z,raid5-hdd6,web,4096,0.5,0.25,"
      "0.20000000000000001,0.375,220,0,0,101,0.5,7.25,0,0,0,"
      "301401c3572e7c68";
  write_file(path(), header + valid_row + "\n" + zero_row + "\n");
  const auto rows = CampaignJournal::load(path());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(CampaignJournal::encode_line(rows[0]), valid_row);
  EXPECT_EQ(rows[1].test_id, 1u);
  EXPECT_EQ(rows[1].iops, 101.0);
  EXPECT_EQ(rows[1].avg_watts, 0.0);

  // The column must still hold an unsigned integer, checksum or not.
  const std::string prefix =
      "1,2026-10-01T00:00:00Z,raid5-hdd6,web,4096,0.5,0.25,"
      "0.20000000000000001,0.375,220,0,0,101,0.5,7.25,0,0,x";
  char checksum[17];
  std::snprintf(checksum, sizeof(checksum), "%016llx",
                static_cast<unsigned long long>(util::fnv1a(prefix)));
  TestRecord scratch;
  EXPECT_FALSE(CampaignJournal::parse_record_line(
      prefix + "," + checksum, scratch));
}

TEST_F(JournalTest, RefusesFieldsThatWouldBreakLineRecovery) {
  CampaignJournal journal(path());
  TestRecord bad = make_record(0);
  bad.device = "evil\ndevice";
  EXPECT_THROW(journal.append(bad), std::invalid_argument);
  bad = make_record(0);
  bad.trace_name = "evil\rtrace";
  EXPECT_THROW(journal.append(bad), std::invalid_argument);
  EXPECT_TRUE(CampaignJournal::load(path()).empty());
}

TEST_F(JournalTest, MergerDedupsByTestId) {
  JournalMerger merger(path());
  EXPECT_TRUE(merger.append_unique(make_record(1)));
  EXPECT_TRUE(merger.append_unique(make_record(2)));
  // Same test re-executed by a stolen shard: rejected, nothing written.
  EXPECT_FALSE(merger.append_unique(make_record(1)));
  EXPECT_EQ(merger.merged(), 2u);
  EXPECT_EQ(merger.deduped(), 1u);
  EXPECT_EQ(CampaignJournal::load(path()).size(), 2u);
}

TEST_F(JournalTest, MergerResumesSeenSetFromJournal) {
  {
    JournalMerger merger(path());
    merger.append_unique(make_record(1));
    merger.append_unique(make_record(2));
  }
  // A restarted coordinator re-opens the journal: already-merged tests are
  // known, new ones append.
  JournalMerger resumed(path());
  EXPECT_EQ(resumed.loaded().size(), 2u);
  EXPECT_TRUE(resumed.contains(1));
  EXPECT_TRUE(resumed.contains(2));
  EXPECT_FALSE(resumed.append_unique(make_record(2)));
  EXPECT_TRUE(resumed.append_unique(make_record(3)));
  EXPECT_EQ(resumed.size(), 3u);
  EXPECT_EQ(CampaignJournal::load(path()).size(), 3u);
}

// The campaign runner appends from its pool threads: racing appends of
// overlapping ids must still leave exactly one row per id.
TEST_F(JournalTest, MergerConcurrentAppendsKeepOneRowPerId) {
  constexpr std::uint64_t kIds = 64;
  constexpr int kThreads = 4;
  JournalMerger merger(path());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&merger] {
      for (std::uint64_t id = 0; id < kIds; ++id) {
        merger.append_unique(make_record(id));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(merger.merged(), kIds);
  EXPECT_EQ(merger.deduped(), kIds * (kThreads - 1));
  EXPECT_EQ(merger.size(), kIds);
  EXPECT_EQ(CampaignJournal::load(path()).size(), kIds);
}

// Fail-pre-fix regression (tracer-lossless-double-format audit): rows were
// encoded at display precision (%.4f / %.3f / %.2f), so a record loaded on
// resume differed from the one measured before the crash — the PR 9 %.9g
// wire bug one layer down. Every double field must survive the journal
// round trip bit-exactly.
TEST_F(JournalTest, AppendLoadRoundTripsDoublesBitExactly) {
  TestRecord r = make_record(1);
  r.random_ratio = 1.0 / 3.0;
  r.read_ratio = 0.1 + 0.2;  // 0.30000000000000004
  r.load_proportion = 0.1234567890123456;
  r.avg_amps = 1.25e-7;  // below the old %.4f floor: was stored as 0.0000
  r.avg_volts = 219.99999999999997;
  r.avg_watts = 3.141592653589793;
  r.joules = 123.45678912345678;
  r.iops = 99999.000000001;
  r.mbps = 2.2250738585072014e-308;  // smallest normal double
  r.avg_response_ms = 0.0001220703125;
  r.iops_per_watt = 1.7976931348623157e308;  // largest finite double
  r.mbps_per_kilowatt = 5366.000000000001;
  {
    CampaignJournal journal(path());
    journal.append(r);
  }
  const auto loaded = CampaignJournal::load(path());
  ASSERT_EQ(loaded.size(), 1u);
  const TestRecord& l = loaded[0];
  EXPECT_EQ(l.random_ratio, r.random_ratio);
  EXPECT_EQ(l.read_ratio, r.read_ratio);
  EXPECT_EQ(l.load_proportion, r.load_proportion);
  EXPECT_EQ(l.avg_amps, r.avg_amps);
  EXPECT_EQ(l.avg_volts, r.avg_volts);
  EXPECT_EQ(l.avg_watts, r.avg_watts);
  EXPECT_EQ(l.joules, r.joules);
  EXPECT_EQ(l.iops, r.iops);
  EXPECT_EQ(l.mbps, r.mbps);
  EXPECT_EQ(l.avg_response_ms, r.avg_response_ms);
  EXPECT_EQ(l.iops_per_watt, r.iops_per_watt);
  EXPECT_EQ(l.mbps_per_kilowatt, r.mbps_per_kilowatt);
}

/// A results session as tracer_cli and quickstart run one: remove the
/// path, open a journal on it, append the records numbered 1..n.
std::vector<TestRecord> write_session(const fs::path& path,
                                      std::vector<TestRecord> records) {
  fs::remove(path);
  CampaignJournal journal(path);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].test_id = i + 1;
    journal.append(records[i]);
  }
  return records;
}

TEST(Database, SaveLoadRoundTrip) {
  const auto path = fs::temp_directory_path() / "tracer_db_test.journal.csv";
  const auto written = write_session(path, {make_record(7), make_record(8)});
  const auto loaded = CampaignJournal::load(path);
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded, written);
  fs::remove(path);
}

// Every double survives the write/load round trip bit-exactly.
TEST(Database, SaveLoadPreservesFullDoublePrecision) {
  const auto path =
      fs::temp_directory_path() / "tracer_db_lossless.journal.csv";
  TestRecord record = make_record(1);
  record.load_proportion = 1.0 / 3.0;
  record.joules = 123.45678912345678;
  record.avg_watts = 3.141592653589793;
  record.avg_amps = 1.25e-7;
  record.iops = 99999.000000001;
  const auto written = write_session(path, {record});
  const auto loaded = CampaignJournal::load(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded, written);
  fs::remove(path);
}

// Fail-pre-fix regression (tracer-lossless-double-format audit): the CSV
// export rounded doubles to 2-4 decimals, so external tooling re-ingesting
// the interchange file saw different measurements than were measured.
// Every double a plain CSV reader sees must parse back bit-equal.
TEST(Database, CsvExportRoundTripsDoublesBitExactly) {
  const auto path = fs::temp_directory_path() / "tracer_db_lossless.csv";
  TestRecord record = make_record(1);
  record.load_proportion = 1.0 / 3.0;
  record.joules = 123.45678912345678;
  record.avg_watts = 3.141592653589793;
  record.avg_amps = 1.25e-7;  // below the old %.4f floor
  record.iops = 99999.000000001;
  const TestRecord stored = write_session(path, {record}).at(0);

  const auto rows = util::CsvReader::load(path.string());
  ASSERT_EQ(rows.size(), 2u);
  const auto& fields = rows[1];
  // Column order matches the journal header row.
  EXPECT_EQ(std::stod(fields[7]), stored.load_proportion);
  EXPECT_EQ(std::stod(fields[8]), stored.avg_amps);
  EXPECT_EQ(std::stod(fields[10]), stored.avg_watts);
  EXPECT_EQ(std::stod(fields[11]), stored.joules);
  EXPECT_EQ(std::stod(fields[12]), stored.iops);
  fs::remove(path);
}

TEST(Database, OpenMissingFileIsEmpty) {
  EXPECT_TRUE(CampaignJournal::load("/nonexistent/file.journal.csv").empty());
}

TEST(Database, CsvExportHasHeaderAndRows) {
  const auto path = fs::temp_directory_path() / "tracer_db_test.csv";
  write_session(path, {make_record(1)});
  const auto rows = util::CsvReader::load(path.string());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "test_id");
  EXPECT_EQ(rows[0].back(), "row_checksum");
  EXPECT_EQ(rows[1][0], "1");
  EXPECT_EQ(rows[1][2], "raid5-hdd6");
  fs::remove(path);
}

// A session replaces whatever was at the path instead of appending to it.
TEST(Database, CsvExportOverwritesExistingFile) {
  const auto path = fs::temp_directory_path() / "tracer_db_overwrite.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "stale,content\n";
  }
  write_session(path, {make_record(1)});
  const auto written = write_session(path, {make_record(1)});
  EXPECT_EQ(CampaignJournal::load(path), written);
  EXPECT_EQ(util::CsvReader::load(path.string()).size(), 2u);
  fs::remove(path);
}

// A results file that cannot be written throws rather than leaving a short
// file behind silently.
TEST(Database, CsvExportToUnwritablePathThrows) {
  const auto blocker = fs::temp_directory_path() / "tracer_db_not_a_dir";
  {
    std::ofstream out(blocker, std::ios::trunc);
    out << "x";
  }
  EXPECT_THROW(write_session(blocker / "results.csv", {make_record(1)}),
               std::runtime_error);
  fs::remove(blocker);
}

// Concurrent tests append to one journal: every row lands whole.
TEST(Database, ConcurrentInsertsAreSafe) {
  const auto path = fs::temp_directory_path() / "tracer_db_concurrent.csv";
  fs::remove(path);
  {
    CampaignJournal journal(path);
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < 4; ++t) {
      threads.emplace_back([&journal, t] {
        for (std::uint64_t i = 0; i < 250; ++i) {
          TestRecord record = make_record(1);
          record.test_id = t * 250 + i + 1;
          journal.append(record);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  const auto loaded = CampaignJournal::load(path);
  EXPECT_EQ(loaded.size(), 1000u);
  std::set<std::uint64_t> ids;
  for (const auto& record : loaded) ids.insert(record.test_id);
  EXPECT_EQ(ids.size(), 1000u);
  fs::remove(path);
}

}  // namespace
}  // namespace tracer::db
