// Failure-injection sweeps over the external input surfaces: whatever
// bytes arrive in a .replay file, an SRT file, a wire frame, or a database
// file, the process must throw cleanly — never crash, hang, or silently
// accept garbage. Deterministic fuzz via seeded mutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "db/journal.h"
#include "net/message.h"
#include "trace/blk_format.h"
#include "trace/srt_format.h"
#include "util/rng.h"

namespace tracer {
namespace {

trace::Trace sample_trace() {
  util::Rng rng(404);
  trace::Trace trace;
  trace.device = "fuzz-target";
  for (int b = 0; b < 200; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = b * 1e-3;
    const std::size_t count = 1 + rng.below(4);
    for (std::size_t p = 0; p < count; ++p) {
      bunch.packages.push_back(trace::IoPackage{
          rng.below(1ULL << 32), (1 + rng.below(64)) * 512,
          rng.chance(0.5) ? OpType::kRead : OpType::kWrite});
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

std::string serialized_trace() {
  std::ostringstream out;
  trace::write_blk(out, sample_trace());
  return out.str();
}

TEST(FormatRobustness, TruncatedReplayAtEveryBoundaryThrows) {
  const std::string data = serialized_trace();
  // Truncation at a spread of prefix lengths must throw, never crash.
  for (std::size_t keep : {0ul, 1ul, 3ul, 4ul, 5ul, 6ul, 9ul, 17ul, 33ul,
                           data.size() / 4, data.size() / 2,
                           data.size() - 1}) {
    std::istringstream in(data.substr(0, keep));
    EXPECT_THROW(trace::read_blk(in), std::runtime_error) << "keep=" << keep;
  }
}

TEST(FormatRobustness, ByteFlippedReplayNeverCrashes) {
  const std::string data = serialized_trace();
  util::Rng rng(777);
  int rejected = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    std::string corrupted = data;
    // Flip 1-4 random bytes.
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(corrupted.size());
      corrupted[at] = static_cast<char>(rng.below(256));
    }
    std::istringstream in(corrupted);
    try {
      const trace::Trace loaded = trace::read_blk(in);
      // Accepted mutations must still be structurally sane.
      for (const auto& bunch : loaded.bunches) {
        for (const auto& pkg : bunch.packages) {
          EXPECT_LE(static_cast<int>(pkg.op), 1);
        }
      }
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // The format has enough structure that most mutations are caught.
  EXPECT_GT(rejected, trials / 4);
}

TEST(FormatRobustness, HugeCountFieldsRejectedBeforeAllocation) {
  // Craft a header claiming 2^32 bunches: the reader must refuse the
  // implausible count instead of attempting a huge reserve.
  std::ostringstream out;
  out.write("TRCR", 4);
  const char version[2] = {1, 0};
  out.write(version, 2);
  const char name_len[4] = {0, 0, 0, 0};
  out.write(name_len, 4);
  const unsigned char count[8] = {0, 0, 0, 0, 2, 0, 0, 0};  // 2^34
  out.write(reinterpret_cast<const char*>(count), 8);
  std::istringstream in(out.str());
  EXPECT_THROW(trace::read_blk(in), std::runtime_error);
}

TEST(FormatRobustness, SrtGarbageLinesThrowCleanly) {
  util::Rng rng(888);
  for (int trial = 0; trial < 100; ++trial) {
    std::string junk;
    const std::size_t length = rng.below(80);
    for (std::size_t i = 0; i < length; ++i) {
      junk += static_cast<char>(' ' + rng.below(94));
    }
    std::istringstream in(junk + "\n");
    try {
      const auto records = trace::parse_srt(in);
      // If it parsed, the junk happened to be empty/comment-like.
      EXPECT_TRUE(records.empty() || !junk.empty());
    } catch (const std::runtime_error&) {
      // Expected for most garbage.
    }
  }
}

TEST(FormatRobustness, MessageFramesSurviveMutation) {
  net::Message message;
  message.type = net::MessageType::kPerfResult;
  message.sequence = 9;
  message.set("iops", "123.4");
  message.set("watts", "81.2");
  const auto frame = message.serialize();
  util::Rng rng(999);
  for (int trial = 0; trial < 300; ++trial) {
    auto corrupted = frame;
    corrupted[rng.below(corrupted.size())] =
        static_cast<std::uint8_t>(rng.below(256));
    try {
      const net::Message decoded = net::Message::deserialize(corrupted);
      (void)decoded;
    } catch (const std::runtime_error&) {
      // Clean rejection is the requirement; acceptance of a benign
      // mutation (e.g. in a value byte) is fine too.
    }
  }
  // Truncations throw.
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    std::vector<std::uint8_t> cut(
        frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(net::Message::deserialize(cut), std::runtime_error);
  }
}

TEST(FormatRobustness, DatabaseFileMutationNeverCrashes) {
  const auto path = std::filesystem::temp_directory_path() /
                    "tracer_fuzz_db.journal.csv";
  std::filesystem::remove(path);
  std::vector<db::TestRecord> originals(2);
  {
    db::CampaignJournal journal(path);
    for (std::size_t i = 0; i < originals.size(); ++i) {
      originals[i].test_id = i + 1;
      originals[i].device = "fuzz";
      originals[i].trace_name = "t";
      journal.append(originals[i]);
    }
  }

  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    data = buffer.str();
  }
  util::Rng rng(111);
  for (int trial = 0; trial < 100; ++trial) {
    std::string corrupted = data;
    corrupted[rng.below(corrupted.size())] =
        static_cast<char>(rng.below(256));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupted;
    out.close();
    // Every surviving row verified its checksum, so it is an original.
    std::vector<db::TestRecord> loaded;
    ASSERT_NO_THROW(loaded = db::CampaignJournal::load(path));
    EXPECT_LE(loaded.size(), 2u);
    for (const auto& row : loaded) {
      EXPECT_NE(std::find(originals.begin(), originals.end(), row),
                originals.end())
          << "trial " << trial;
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace tracer
