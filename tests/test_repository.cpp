#include "trace/repository.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

namespace tracer::trace {
namespace {

class RepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tracer_repo_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

Trace tiny_trace() {
  Trace trace;
  trace.device = "raid5-hdd6";
  Bunch bunch;
  bunch.timestamp = 0.0;
  bunch.packages.push_back(IoPackage{0, 4096, OpType::kRead});
  trace.bunches.push_back(bunch);
  return trace;
}

TEST(TraceKey, FileNameEncodesAllFields) {
  TraceKey key{"raid5-hdd6", 4096, 50, 25};
  EXPECT_EQ(key.file_name(), "raid5-hdd6_rs4K_rnd50_rd25.replay");
}

TEST(TraceKey, ParseRoundTripsFileName) {
  for (const TraceKey& key : {
           TraceKey{"raid5-hdd6", 4096, 50, 25},
           TraceKey{"ssd", 512, 0, 100},
           TraceKey{"dev_with_underscore", 1048576, 100, 0},
       }) {
    const auto parsed = TraceKey::parse(key.file_name());
    ASSERT_TRUE(parsed.has_value()) << key.file_name();
    EXPECT_EQ(*parsed, key);
  }
}

TEST(TraceKey, ParseRejectsForeignNames) {
  EXPECT_FALSE(TraceKey::parse("notes.txt").has_value());
  EXPECT_FALSE(TraceKey::parse("x.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("a_rs4K_rnd50.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("a_rsXX_rnd50_rd0.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("a_rs4K_rnd200_rd0.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("_rs4K_rnd50_rd0.replay").has_value());
  // Neither a columnar file nor a store()'s temporary file is an entry.
  EXPECT_FALSE(TraceKey::parse("a_rs4K_rnd50_rd0.replay2").has_value());
  EXPECT_FALSE(
      TraceKey::parse("a_rs4K_rnd50_rd0.replay.123.0.tmp").has_value());
}

TEST_F(RepositoryTest, StoreLoadRoundTrip) {
  TraceRepository repo(dir_);
  const TraceKey key{"raid5-hdd6", 4096, 50, 0};
  const Trace trace = tiny_trace();
  EXPECT_FALSE(repo.contains(key));
  repo.store(key, trace);
  EXPECT_TRUE(repo.contains(key));
  EXPECT_EQ(repo.load(key), trace);
}

TEST_F(RepositoryTest, LoadMissingThrows) {
  TraceRepository repo(dir_);
  EXPECT_THROW(repo.load(TraceKey{"x", 512, 0, 0}), std::runtime_error);
}

TEST_F(RepositoryTest, ListReturnsSortedKeysAndSkipsForeignFiles) {
  TraceRepository repo(dir_);
  repo.store(TraceKey{"b", 4096, 50, 0}, tiny_trace());
  repo.store(TraceKey{"a", 512, 0, 100}, tiny_trace());
  { std::ofstream junk(dir_ / "README.txt"); junk << "hi"; }
  { std::ofstream v2(dir_ / "c_rs1K_rnd0_rd0.replay2"); v2 << "x"; }
  { std::ofstream tmp(dir_ / "c_rs1K_rnd0_rd0.replay.1.0.tmp"); tmp << "x"; }
  const auto keys = repo.list();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].device, "a");
  EXPECT_EQ(keys[1].device, "b");
}

TEST_F(RepositoryTest, StoreOverwritesExisting) {
  TraceRepository repo(dir_);
  const TraceKey key{"dev", 4096, 0, 0};
  repo.store(key, tiny_trace());
  Trace bigger = tiny_trace();
  bigger.bunches.push_back(bigger.bunches[0]);
  repo.store(key, bigger);
  EXPECT_EQ(repo.load(key).bunch_count(), 2u);
}

TEST_F(RepositoryTest, CreatesDirectoryOnConstruction) {
  EXPECT_FALSE(std::filesystem::exists(dir_));
  TraceRepository repo(dir_ / "nested" / "deeper");
  EXPECT_TRUE(std::filesystem::exists(dir_ / "nested" / "deeper"));
}

// --- verified bijection -----------------------------------------------------

// Property: every encodable key survives file_name() -> parse() unchanged,
// including irregular request sizes that don't collapse to a K/M/G suffix.
TEST(TraceKey, BijectionHoldsForIrregularKeys) {
  const Bytes sizes[] = {1,       512,        513,
                         1023,    1234567,    1048576,
                         1048577, 4096,       std::uint64_t{1} << 40,
                         std::numeric_limits<std::uint32_t>::max()};
  const char* devices[] = {"d", "raid5-hdd6", "dev_with_underscore",
                           "a-b_c-d", "x0123456789"};
  for (const char* device : devices) {
    for (const Bytes size : sizes) {
      for (const int rnd : {0, 1, 50, 99, 100}) {
        for (const int rd : {0, 100}) {
          const TraceKey key{device, size, rnd, rd};
          const auto parsed = TraceKey::parse(key.file_name());
          ASSERT_TRUE(parsed.has_value()) << key.file_name();
          EXPECT_EQ(*parsed, key) << key.file_name();
        }
      }
    }
  }
}

TEST(TraceKey, FileNameRejectsUnencodableKeys) {
  EXPECT_THROW((TraceKey{"", 4096, 50, 0}.file_name()), std::invalid_argument);
  EXPECT_THROW((TraceKey{"a/b", 4096, 50, 0}.file_name()),
               std::invalid_argument);
  EXPECT_THROW((TraceKey{"a\\b", 4096, 50, 0}.file_name()),
               std::invalid_argument);
  EXPECT_THROW((TraceKey{"dev", 4096, -1, 0}.file_name()),
               std::invalid_argument);
  EXPECT_THROW((TraceKey{"dev", 4096, 101, 0}.file_name()),
               std::invalid_argument);
  EXPECT_THROW((TraceKey{"dev", 4096, 0, -1}.file_name()),
               std::invalid_argument);
  EXPECT_THROW((TraceKey{"dev", 4096, 0, 101}.file_name()),
               std::invalid_argument);
}

// parse() accepts only the canonical encoding: a name that decodes but
// re-encodes differently (wrong case, leading zeros) is foreign, so
// parse(file_name(key)) == key is a true bijection, not just a retraction.
TEST(TraceKey, ParseRejectsNonCanonicalEncodings) {
  ASSERT_TRUE(TraceKey::parse("dev_rs4K_rnd50_rd25.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("dev_rs4k_rnd50_rd25.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("dev_rs4096_rnd50_rd25.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("dev_rs4K_rnd050_rd25.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("dev_rs4K_rnd50_rd025.replay").has_value());
  EXPECT_FALSE(TraceKey::parse("dev_rs04K_rnd50_rd25.replay").has_value());
}

// A store that throws part-way leaves the previous entry intact and no
// temporary file behind.
TEST_F(RepositoryTest, FailedStoreKeepsEntryAndLeavesNoTemporaryFile) {
  TraceRepository repo(dir_);
  const TraceKey key{"dev", 4096, 0, 0};
  repo.store(key, tiny_trace());
  Trace bad = tiny_trace();
  bad.bunches.push_back(bad.bunches[0]);
  bad.bunches.back().timestamp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(repo.store(key, bad), std::invalid_argument);
  EXPECT_EQ(repo.load(key), tiny_trace());
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().filename().string(), key.file_name());
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

// One thread re-stores a key while another loads it: every load must see
// one complete trace, never a partially written file.
TEST_F(RepositoryTest, ConcurrentStoreAndLoadNeverSeePartialTrace) {
  TraceRepository repo(dir_);
  const TraceKey key{"dev", 4096, 50, 50};
  const Trace small = tiny_trace();
  Trace large = tiny_trace();
  for (int b = 1; b < 2000; ++b) {
    Bunch bunch = large.bunches[0];
    bunch.timestamp = b * 1e-3;
    large.bunches.push_back(std::move(bunch));
  }
  repo.store(key, small);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200; ++i) repo.store(key, i % 2 ? small : large);
    done.store(true, std::memory_order_release);
  });
  int loads = 0;
  std::string error;
  while (error.empty() &&
         (!done.load(std::memory_order_acquire) || loads == 0)) {
    try {
      const Trace loaded = repo.load(key);
      EXPECT_TRUE(loaded == small || loaded == large);
    } catch (const std::exception& e) {
      error = e.what();
    }
    ++loads;
  }
  writer.join();
  EXPECT_EQ(error, "") << "load " << loads << " of a key being re-stored";
}

}  // namespace
}  // namespace tracer::trace
