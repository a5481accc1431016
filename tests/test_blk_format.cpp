#include "trace/blk_format.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>

#include "util/binary_io.h"
#include "util/rng.h"

namespace tracer::trace {
namespace {

Trace random_trace(std::size_t bunches, std::uint64_t seed) {
  util::Rng rng(seed);
  Trace trace;
  trace.device = "raid5-hdd6";
  for (std::size_t b = 0; b < bunches; ++b) {
    Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * rng.uniform(0.5e-3, 2e-3);
    const std::size_t count = 1 + rng.below(8);
    for (std::size_t p = 0; p < count; ++p) {
      IoPackage pkg;
      pkg.sector = rng.below(1ULL << 40);
      pkg.bytes = (1 + rng.below(256)) * 512;
      pkg.op = rng.chance(0.5) ? OpType::kRead : OpType::kWrite;
      bunch.packages.push_back(pkg);
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

TEST(BlkFormat, RoundTripsInMemory) {
  const Trace original = random_trace(500, 42);
  std::stringstream buffer;
  write_blk(buffer, original);
  const Trace loaded = read_blk(buffer);
  EXPECT_EQ(loaded, original);
}

TEST(BlkFormat, RoundTripsEmptyTrace) {
  Trace trace;
  trace.device = "empty";
  std::stringstream buffer;
  write_blk(buffer, trace);
  const Trace loaded = read_blk(buffer);
  EXPECT_EQ(loaded, trace);
}

TEST(BlkFormat, RoundTripsViaFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "tracer_blk_test.replay";
  const Trace original = random_trace(100, 7);
  write_blk_file(path.string(), original);
  const Trace loaded = read_blk_file(path.string());
  EXPECT_EQ(loaded, original);
  std::filesystem::remove(path);
}

TEST(BlkFormat, MissingFileThrows) {
  EXPECT_THROW(read_blk_file("/nonexistent/t.replay"), std::runtime_error);
}

TEST(BlkFormat, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "JUNKJUNKJUNKJUNK";
  EXPECT_THROW(read_blk(buffer), std::runtime_error);
}

TEST(BlkFormat, WrongVersionRejected) {
  std::stringstream buffer;
  buffer.write(kBlkMagic, 4);
  buffer.put(static_cast<char>(99));  // version lo byte
  buffer.put(0);
  buffer << std::string(32, '\0');
  EXPECT_THROW(read_blk(buffer), std::runtime_error);
}

TEST(BlkFormat, TruncatedPayloadThrows) {
  const Trace original = random_trace(50, 3);
  std::stringstream buffer;
  write_blk(buffer, original);
  std::string data = buffer.str();
  data.resize(data.size() / 2);
  std::istringstream truncated(data);
  EXPECT_THROW(read_blk(truncated), std::runtime_error);
}

TEST(BlkFormat, BadOpCodeRejected) {
  Trace trace;
  Bunch bunch;
  bunch.packages.push_back(IoPackage{0, 512, OpType::kRead});
  trace.bunches.push_back(bunch);
  std::stringstream buffer;
  write_blk(buffer, trace);
  std::string data = buffer.str();
  data.back() = 7;  // op byte is last
  std::istringstream corrupted(data);
  EXPECT_THROW(read_blk(corrupted), std::runtime_error);
}

TEST(BlkFormat, PreservesDeviceName) {
  Trace trace;
  trace.device = "raid5-ssd4_special";
  std::stringstream buffer;
  write_blk(buffer, trace);
  EXPECT_EQ(read_blk(buffer).device, "raid5-ssd4_special");
}

TEST(BlkFormat, TimestampPrecisionSurvives) {
  Trace trace;
  Bunch bunch;
  bunch.timestamp = 1234.56789012345;
  bunch.packages.push_back(IoPackage{1, 512, OpType::kWrite});
  trace.bunches.push_back(bunch);
  std::stringstream buffer;
  write_blk(buffer, trace);
  EXPECT_DOUBLE_EQ(read_blk(buffer).bunches[0].timestamp, 1234.56789012345);
}

// --- untrusted-header hardening ---------------------------------------------

// A v1 header claiming a huge bunch count followed by (almost) no data. A
// vector reserve driven by the raw header field would try to allocate
// hundreds of GB here; the decoder must reject the count against the
// remaining stream size before any allocation.
std::string crafted_header(std::uint64_t bunch_count,
                           const std::string& tail = {}) {
  std::stringstream buffer;
  util::BinaryWriter writer(buffer);
  writer.raw(kBlkMagic, 4);
  writer.u16(kBlkVersion);
  writer.str("");  // empty device: the minimal syntactically valid header
  writer.u64(bunch_count);
  return buffer.str() + tail;
}

TEST(BlkFormatHardening, HugeDeclaredCountWithEmptyBodyRejected) {
  // ~100M declared bunches, zero bytes of body: must throw, not allocate.
  std::istringstream in(crafted_header(100'000'000ULL));
  EXPECT_THROW(read_blk(in), std::runtime_error);
}

TEST(BlkFormatHardening, DeclaredCountJustOverBodyRejected) {
  // Body holds exactly one empty bunch (12 bytes) but the header claims 2.
  std::stringstream body;
  util::BinaryWriter writer(body);
  writer.f64(0.0);
  writer.u32(0);
  std::istringstream in(crafted_header(2, body.str()));
  EXPECT_THROW(read_blk(in), std::runtime_error);
}

TEST(BlkFormatHardening, DeclaredPackageCountOverBodyRejected) {
  // One bunch whose package count claims more payload than the stream has.
  std::stringstream body;
  util::BinaryWriter writer(body);
  writer.f64(0.0);
  writer.u32(1000);  // 13 KB of packages promised...
  writer.u64(0);     // ...but only one package's worth of bytes present
  writer.u32(512);
  writer.u8(0);
  std::istringstream in(crafted_header(1, body.str()));
  EXPECT_THROW(read_blk(in), std::runtime_error);
}

TEST(BlkFormatHardening, CountAboveFormatCapRejected) {
  std::istringstream in(crafted_header(kMaxTraceBunches + 1));
  EXPECT_THROW(read_blk(in), std::runtime_error);
}

// Truncation at EVERY byte offset must yield a clean runtime_error — never
// a crash, an over-allocation, or a silently partial trace.
TEST(BlkFormatHardening, TruncationAtEveryOffsetThrows) {
  const Trace original = random_trace(20, 11);
  std::stringstream buffer;
  write_blk(buffer, original);
  const std::string data = buffer.str();
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    std::istringstream in(data.substr(0, cut));
    EXPECT_THROW(read_blk(in), std::runtime_error) << "offset " << cut;
  }
  // Sanity: the untruncated bytes still decode.
  std::istringstream whole(data);
  EXPECT_EQ(read_blk(whole), original);
}

// --- timestamp validation ---------------------------------------------------

std::string trace_with_timestamp_bits(double timestamp) {
  std::stringstream body;
  util::BinaryWriter writer(body);
  writer.f64(timestamp);
  writer.u32(0);
  return crafted_header(1, body.str());
}

TEST(BlkFormatHardening, NonFiniteTimestampsRejectedOnRead) {
  for (const double bad : {std::nan(""),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1.0,
                           -1e-9}) {
    std::istringstream in(trace_with_timestamp_bits(bad));
    EXPECT_THROW(read_blk(in), std::runtime_error) << bad;
  }
  // Zero and positive timestamps stay valid.
  std::istringstream ok(trace_with_timestamp_bits(0.0));
  EXPECT_EQ(read_blk(ok).bunch_count(), 1u);
}

TEST(BlkFormatHardening, WriterRejectsInvalidTimestamps) {
  Trace trace;
  Bunch bunch;
  bunch.timestamp = -0.5;
  trace.bunches.push_back(bunch);
  std::stringstream buffer;
  EXPECT_THROW(write_blk(buffer, trace), std::invalid_argument);
  trace.bunches[0].timestamp = std::nan("");
  std::stringstream buffer2;
  EXPECT_THROW(write_blk(buffer2, trace), std::invalid_argument);
}

// --- streaming reader/writer pair -------------------------------------------

TEST(BlkStream, WriterReaderRoundTripBunchByBunch) {
  const Trace original = random_trace(64, 5);
  std::stringstream buffer;
  BlkStreamWriter writer(buffer, original.device, original.bunches.size());
  for (const auto& bunch : original.bunches) writer.add(bunch);
  writer.finish();

  BlkStreamReader reader(buffer);
  EXPECT_EQ(reader.device(), original.device);
  EXPECT_EQ(reader.bunch_count(), original.bunches.size());
  Trace loaded;
  loaded.device = reader.device();
  Bunch bunch;
  while (reader.next(bunch)) loaded.bunches.push_back(bunch);
  EXPECT_EQ(loaded, original);
}

TEST(BlkStream, FinishVerifiesDeclaredCount) {
  std::stringstream buffer;
  BlkStreamWriter writer(buffer, "dev", 2);
  writer.add(0.0, {});
  EXPECT_THROW(writer.finish(), std::runtime_error);  // one short
  writer.add(1.0, {});
  writer.finish();
  std::stringstream buffer2;
  BlkStreamWriter writer2(buffer2, "dev", 1);
  writer2.add(0.0, {});
  EXPECT_THROW(writer2.add(1.0, {}), std::runtime_error);  // one over
}

// Property: round trip across irregular shapes — empty bunches, empty
// device-adjacent sizes, many-package bunches.
TEST(BlkStream, PropertyRoundTripIrregularShapes) {
  util::Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    Trace original;
    original.device = round % 2 ? "dev_under_score" : "d";
    const std::size_t bunches = rng.below(40);
    double t = 0.0;
    for (std::size_t b = 0; b < bunches; ++b) {
      Bunch bunch;
      t += rng.uniform(0.0, 1e-3);
      bunch.timestamp = t;
      const std::size_t count = rng.below(12);  // often zero: empty bunches
      for (std::size_t p = 0; p < count; ++p) {
        IoPackage pkg;
        pkg.sector = rng.below(1ULL << 40);
        pkg.bytes = rng.chance(0.1)
                        ? std::numeric_limits<std::uint32_t>::max()
                        : (1 + rng.below(256)) * 512;
        pkg.op = rng.chance(0.5) ? OpType::kRead : OpType::kWrite;
        bunch.packages.push_back(pkg);
      }
      original.bunches.push_back(std::move(bunch));
    }
    std::stringstream buffer;
    write_blk(buffer, original);
    EXPECT_EQ(read_blk(buffer), original) << "round " << round;
  }
}

}  // namespace
}  // namespace tracer::trace
