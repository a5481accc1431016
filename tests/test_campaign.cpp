#include "core/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <string>

namespace tracer::core {
namespace {

workload::WorkloadMode make_mode(double load) {
  workload::WorkloadMode mode;
  mode.request_size = 16 * kKiB;
  mode.random_ratio = 0.5;
  mode.read_ratio = 0.5;
  mode.load_proportion = load;
  return mode;
}

std::vector<workload::WorkloadMode> ten_loads() {
  std::vector<workload::WorkloadMode> modes;
  for (int l = 1; l <= 10; ++l) modes.push_back(make_mode(l / 10.0));
  return modes;
}

/// Fast deterministic executor standing in for EvaluationHost::run_test.
db::TestRecord fake_record(const workload::WorkloadMode& mode) {
  db::TestRecord record;
  record.timestamp = "2026-08-06T00:00:00Z";
  record.device = "fake-array";
  record.request_size = mode.request_size;
  record.random_ratio = mode.random_ratio;
  record.read_ratio = mode.read_ratio;
  record.load_proportion = mode.load_proportion;
  record.iops = 1000.0 * mode.load_proportion;
  record.avg_watts = 80.0;
  record.iops_per_watt = record.iops / record.avg_watts;
  return record;
}

// Files that are not this campaign's journal: plain text, and a results
// export in the earlier 18-column layout (no row checksum).
const char* const kForeignFiles[] = {
    "not a journal\njust some notes\n",
    "test_id,timestamp,device,trace,request_size,random_ratio,read_ratio,"
    "load_proportion,avg_amps,avg_volts,avg_watts,joules,iops,mbps,"
    "avg_response_ms,iops_per_watt,mbps_per_kilowatt,power_valid\n"
    "1,2026-07-07T00:00:00Z,raid5-hdd6,raid5-hdd6_rs4K_rnd50_rd0.replay,4096,"
    "0.5,0,1,0.35999999999999999,220.09999999999999,79.5,318,"
    "123.40000000000001,0.505,18.199999999999999,1.552,6.3499999999999996,1\n",
};

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_ = std::filesystem::temp_directory_path() /
               ("tracer_campaign_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".csv");
    std::filesystem::remove(journal_);
    std::filesystem::remove(sidecar());
  }
  void TearDown() override {
    std::filesystem::remove(journal_);
    std::filesystem::remove(sidecar());
  }

  std::filesystem::path sidecar() const {
    return std::filesystem::path(journal_.string() + ".campaign");
  }

  CampaignOptions fast_options() {
    CampaignOptions options;
    options.max_retries = 0;
    options.retry_backoff = 0.0;
    options.threads = 2;
    return options;
  }

  std::filesystem::path journal_;
};

TEST_F(CampaignTest, AllTestsCompleteAndStayInInputOrder) {
  CampaignRunner runner(fake_record, "fake-array", fast_options());
  const auto modes = ten_loads();
  const CampaignReport report = runner.run(modes);
  ASSERT_EQ(report.outcomes.size(), modes.size());
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.completed(), modes.size());
  EXPECT_EQ(report.retries, 0u);
  for (std::size_t i = 0; i < modes.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].status, TestStatus::kCompleted);
    EXPECT_DOUBLE_EQ(report.outcomes[i].record.load_proportion,
                     modes[i].load_proportion);
    EXPECT_EQ(report.outcomes[i].attempts, 1);
  }
}

TEST_F(CampaignTest, InjectedFailureIsIsolatedToOneSlot) {
  CampaignOptions options = fast_options();
  options.fail_test = [](const workload::WorkloadMode& mode, int) {
    return mode.load_proportion == 0.5;
  };
  CampaignRunner runner(fake_record, "fake-array", options);
  const CampaignReport report = runner.run(ten_loads());
  EXPECT_EQ(report.completed(), 9u);
  ASSERT_EQ(report.failed(), 1u);
  EXPECT_FALSE(report.all_ok());
  const TestOutcome& failed = report.outcomes[4];  // load 0.5 is slot 5
  EXPECT_EQ(failed.status, TestStatus::kFailed);
  EXPECT_NE(failed.error.find("injected fault"), std::string::npos);
}

TEST_F(CampaignTest, TransientFailureRecoversViaRetry) {
  CampaignOptions options = fast_options();
  options.max_retries = 2;
  options.fail_test = [](const workload::WorkloadMode&, int attempt) {
    return attempt == 0;  // first attempt of every test fails
  };
  CampaignRunner runner(fake_record, "fake-array", options);
  const CampaignReport report = runner.run(ten_loads());
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.completed(), 10u);
  EXPECT_EQ(report.retries, 10u);
  for (const auto& outcome : report.outcomes) {
    EXPECT_EQ(outcome.attempts, 2);
  }
}

TEST_F(CampaignTest, RetriesAreBoundedThenFail) {
  CampaignOptions options = fast_options();
  options.max_retries = 1;
  options.fail_test = [](const workload::WorkloadMode&, int) { return true; };
  CampaignRunner runner(fake_record, "fake-array", options);
  const CampaignReport report = runner.run({make_mode(0.5)});
  ASSERT_EQ(report.failed(), 1u);
  EXPECT_EQ(report.outcomes[0].attempts, 2);  // initial + one retry
  EXPECT_EQ(report.retries, 1u);
}

TEST_F(CampaignTest, JournalResumeSkipsCompletedPairs) {
  const auto modes = ten_loads();

  // Run 1 ("process" 1): one injected hard failure at load 0.3.
  {
    CampaignOptions options = fast_options();
    options.journal_path = journal_;
    options.fail_test = [](const workload::WorkloadMode& mode, int) {
      return mode.load_proportion == 0.3;
    };
    CampaignRunner runner(fake_record, "fake-array", options);
    const CampaignReport report = runner.run(modes);
    EXPECT_EQ(report.completed(), 9u);
    EXPECT_EQ(report.failed(), 1u);
  }

  // Run 2 (fresh runner = restarted process): only the failed pair runs.
  std::atomic<int> executor_calls{0};
  std::mutex seen_mutex;
  std::set<double> seen_loads;
  {
    CampaignOptions options = fast_options();
    options.journal_path = journal_;
    CampaignRunner runner(
        [&](const workload::WorkloadMode& mode) {
          ++executor_calls;
          {
            std::lock_guard<std::mutex> lock(seen_mutex);
            seen_loads.insert(mode.load_proportion);
          }
          return fake_record(mode);
        },
        "fake-array", options);
    const CampaignReport report = runner.run(modes);
    EXPECT_TRUE(report.all_ok());
    EXPECT_EQ(report.skipped(), 9u);
    EXPECT_EQ(report.completed(), 1u);
    // Skipped slots carry the journaled record, so the full result table
    // is available without re-running anything.
    for (const auto& outcome : report.outcomes) {
      EXPECT_GT(outcome.record.iops, 0.0);
    }
  }
  EXPECT_EQ(executor_calls.load(), 1);
  EXPECT_EQ(seen_loads, std::set<double>{0.3});

  // Run 3: everything on record now; the executor is never invoked.
  {
    CampaignOptions options = fast_options();
    options.journal_path = journal_;
    CampaignRunner runner(
        [&](const workload::WorkloadMode& mode) {
          ++executor_calls;
          return fake_record(mode);
        },
        "fake-array", options);
    const CampaignReport report = runner.run(modes);
    EXPECT_EQ(report.skipped(), modes.size());
    EXPECT_EQ(report.completed(), 0u);
  }
  EXPECT_EQ(executor_calls.load(), 1);
}

// Resume keys on the matrix index, so the journal is bound to the matrix
// fingerprint: the same modes in a different order would otherwise resume
// every row into the wrong slot.
TEST_F(CampaignTest, JournalResumeRefusesReorderedMatrix) {
  const auto modes = ten_loads();
  {
    CampaignOptions options = fast_options();
    options.journal_path = journal_;
    CampaignRunner runner(fake_record, "fake-array", options);
    EXPECT_TRUE(runner.run(modes).all_ok());
  }
  auto reordered = modes;
  std::reverse(reordered.begin(), reordered.end());
  std::atomic<int> executor_calls{0};
  CampaignOptions options = fast_options();
  options.journal_path = journal_;
  CampaignRunner runner(
      [&](const workload::WorkloadMode& mode) {
        ++executor_calls;
        return fake_record(mode);
      },
      "fake-array", options);
  EXPECT_THROW(runner.run(reordered), std::runtime_error);
  EXPECT_EQ(executor_calls.load(), 0);
  // A different device names a different campaign, too.
  CampaignRunner other_device(fake_record, "other-array", options);
  EXPECT_THROW(other_device.run(modes), std::runtime_error);
}

TEST_F(CampaignTest, JournalRowsAreKeyedByMatrixIndex) {
  const auto modes = ten_loads();
  CampaignOptions options = fast_options();
  options.journal_path = journal_;
  CampaignRunner runner(fake_record, "fake-array", options);
  const CampaignReport report = runner.run(modes);
  ASSERT_TRUE(report.all_ok());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].record.test_id, i);
  }
  std::set<std::uint64_t> ids;
  for (const auto& row : db::CampaignJournal::load(journal_)) {
    EXPECT_TRUE(ids.insert(row.test_id).second) << "duplicate " << row.test_id;
    ASSERT_LT(row.test_id, modes.size());
    EXPECT_EQ(row.load_proportion, modes[row.test_id].load_proportion);
  }
  EXPECT_EQ(ids.size(), modes.size());
}

// A journal in a directory that does not exist yet still gets its identity
// sidecar, so a later resume under a different matrix is refused.
TEST_F(CampaignTest, JournalInNewDirectoryIsBoundToItsCampaign) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tracer_campaign_newdir_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  CampaignOptions options = fast_options();
  options.journal_path = dir / "sub" / "journal.csv";
  {
    CampaignRunner runner(fake_record, "fake-array", options);
    EXPECT_TRUE(runner.run(ten_loads()).all_ok());
  }
  EXPECT_TRUE(std::filesystem::exists(dir / "sub" / "journal.csv.campaign"));
  auto other = ten_loads();
  other.pop_back();
  CampaignRunner resume(fake_record, "fake-array", options);
  EXPECT_THROW(resume.run(other), std::runtime_error);
  std::filesystem::remove_all(dir);
}

// Rows without a sidecar carry someone else's test ids: refuse them rather
// than skip the wrong tests. A header-only journal is still fresh.
TEST_F(CampaignTest, SidecarlessJournalWithRowsIsRefused) {
  {
    db::CampaignJournal journal(journal_);
    for (std::uint64_t id = 0; id < 3; ++id) {
      db::TestRecord record = fake_record(make_mode(0.1));
      record.test_id = id;
      journal.append(record);
    }
  }
  std::atomic<int> executor_calls{0};
  const auto counting = [&](const workload::WorkloadMode& mode) {
    ++executor_calls;
    return fake_record(mode);
  };
  CampaignOptions options = fast_options();
  options.journal_path = journal_;
  {
    CampaignRunner runner(counting, "fake-array", options);
    EXPECT_THROW(runner.run(ten_loads()), std::runtime_error);
  }
  EXPECT_EQ(executor_calls.load(), 0);
  EXPECT_FALSE(std::filesystem::exists(sidecar()));
  EXPECT_EQ(db::CampaignJournal::load(journal_).size(), 3u);

  std::filesystem::remove(journal_);
  { db::CampaignJournal header_only(journal_); }
  CampaignRunner runner(counting, "fake-array", options);
  const CampaignReport report = runner.run(ten_loads());
  EXPECT_EQ(report.completed(), 10u);
  EXPECT_EQ(executor_calls.load(), 10);
  EXPECT_TRUE(std::filesystem::exists(sidecar()));
}

// A sidecar-less file that is not a blank journal is refused and left
// byte-for-byte alone; opening it as a journal would truncate it.
TEST_F(CampaignTest, ForeignFileAtJournalPathIsRefusedAndUntouched) {
  std::atomic<int> executor_calls{0};
  const auto counting = [&](const workload::WorkloadMode& mode) {
    ++executor_calls;
    return fake_record(mode);
  };
  CampaignOptions options = fast_options();
  options.journal_path = journal_;
  for (const char* foreign : kForeignFiles) {
    std::filesystem::remove(sidecar());
    {
      std::ofstream out(journal_, std::ios::binary | std::ios::trunc);
      out << foreign;
    }
    CampaignRunner runner(counting, "fake-array", options);
    EXPECT_THROW(runner.run(ten_loads()), std::runtime_error);
    EXPECT_EQ(executor_calls.load(), 0);
    EXPECT_FALSE(std::filesystem::exists(sidecar()));
    EXPECT_EQ(read_bytes(journal_), foreign);
  }
}

TEST_F(CampaignTest, JournalSurvivesTornTailRow) {
  const auto modes = ten_loads();
  {
    CampaignOptions options = fast_options();
    options.journal_path = journal_;
    CampaignRunner runner(fake_record, "fake-array", options);
    runner.run(modes);
  }
  {
    // Simulate a crash mid-append: a half-written row at the tail.
    std::ofstream out(journal_, std::ios::app);
    out << "999,2026-08-06T00:00:00Z,fake-array,half-a-row";
  }
  const auto records = db::CampaignJournal::load(journal_);
  EXPECT_EQ(records.size(), modes.size());  // torn row skipped, not fatal
  CampaignOptions options = fast_options();
  options.journal_path = journal_;
  CampaignRunner runner(fake_record, "fake-array", options);
  const CampaignReport report = runner.run(modes);
  EXPECT_EQ(report.skipped(), modes.size());
}

TEST_F(CampaignTest, CancellationStopsRemainingTests) {
  CampaignOptions options = fast_options();
  options.threads = 1;  // deterministic: tests run in order
  CampaignRunner* runner_ptr = nullptr;
  std::atomic<int> executed{0};
  CampaignRunner runner(
      [&](const workload::WorkloadMode& mode) {
        if (++executed == 3) runner_ptr->cancel_token().request_cancel();
        return fake_record(mode);
      },
      "fake-array", options);
  runner_ptr = &runner;
  const CampaignReport report = runner.run(ten_loads());
  EXPECT_EQ(executed.load(), 3);
  EXPECT_EQ(report.completed(), 3u);
  EXPECT_EQ(report.cancelled(), 7u);
  for (std::size_t i = 3; i < report.outcomes.size(); ++i) {
    EXPECT_EQ(report.outcomes[i].status, TestStatus::kCancelled);
    EXPECT_EQ(report.outcomes[i].attempts, 0);
  }
}

TEST_F(CampaignTest, ProgressStreamsCountsAndEta) {
  CampaignOptions options = fast_options();
  options.threads = 1;
  std::vector<CampaignProgress> updates;
  options.on_progress = [&updates](const CampaignProgress& p) {
    updates.push_back(p);
  };
  CampaignRunner runner(fake_record, "fake-array", options);
  runner.run(ten_loads());
  ASSERT_EQ(updates.size(), 10u);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(updates[i].total, 10u);
    EXPECT_EQ(updates[i].completed, i + 1);
    EXPECT_GE(updates[i].elapsed, 0.0);
    EXPECT_GE(updates[i].eta, 0.0);
  }
  EXPECT_EQ(updates.back().processed(), 10u);
  EXPECT_DOUBLE_EQ(updates.back().eta, 0.0);
}

TEST_F(CampaignTest, ProgressCarriesMetricsSnapshot) {
  const std::uint64_t completed_before =
      obs::Registry::global().snapshot().counter_or("campaign.completed");
  CampaignOptions options = fast_options();
  options.threads = 1;
  options.journal_path = journal_;
  std::vector<CampaignProgress> updates;
  options.on_progress = [&updates](const CampaignProgress& p) {
    updates.push_back(p);
  };
  CampaignRunner runner(fake_record, "fake-array", options);
  runner.run(ten_loads());
  ASSERT_EQ(updates.size(), 10u);
  // Each callback sees a registry snapshot at least as fresh as its own
  // campaign counter (registry bump precedes the callback).
  for (std::size_t i = 0; i < updates.size(); ++i) {
    EXPECT_GE(updates[i].metrics.counter_or("campaign.completed"),
              completed_before + i + 1)
        << "update " << i;
  }
  const obs::Snapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(after.counter_or("campaign.completed") - completed_before, 10u);
  EXPECT_GE(after.counter_or("campaign.checkpoint_writes"), 10u);
}

TEST_F(CampaignTest, RetryAndFailureCountersReachRegistry) {
  const obs::Snapshot before = obs::Registry::global().snapshot();
  CampaignOptions options = fast_options();
  options.max_retries = 1;
  options.fail_test = [](const workload::WorkloadMode& mode, int /*attempt*/) {
    return mode.load_proportion == 0.3;  // fails both attempts
  };
  CampaignRunner runner(fake_record, "fake-array", options);
  const CampaignReport report = runner.run(ten_loads());
  EXPECT_EQ(report.failed(), 1u);
  const obs::Snapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(after.counter_or("campaign.retries") -
                before.counter_or("campaign.retries"),
            1u);
  EXPECT_EQ(after.counter_or("campaign.failures") -
                before.counter_or("campaign.failures"),
            1u);
}

TEST(CampaignJournalTest, RoundTripsRecords) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("tracer_journal_rt_" + std::to_string(::getpid()) +
                     ".csv");
  std::filesystem::remove(path);
  db::TestRecord record = fake_record(make_mode(0.7));
  record.test_id = 42;
  record.trace_name = "trace,with\"quotes";  // must survive CSV escaping
  {
    db::CampaignJournal journal(path);
    journal.append(record);
  }
  const auto loaded = db::CampaignJournal::load(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].test_id, 42u);
  EXPECT_EQ(loaded[0].trace_name, record.trace_name);
  EXPECT_EQ(loaded[0].device, record.device);
  EXPECT_NEAR(loaded[0].load_proportion, 0.7, 1e-6);
  EXPECT_NEAR(loaded[0].iops, record.iops, 0.01);
  // Appending to an existing journal must not duplicate the header.
  {
    db::CampaignJournal journal(path);
    journal.append(record);
  }
  EXPECT_EQ(db::CampaignJournal::load(path).size(), 2u);
  std::filesystem::remove(path);
}

TEST(CampaignJournalTest, MissingFileIsEmpty) {
  EXPECT_TRUE(db::CampaignJournal::load("/nonexistent/journal.csv").empty());
}

}  // namespace
}  // namespace tracer::core
