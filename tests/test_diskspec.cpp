#include "storage/diskspec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "storage/callback_sink.h"

namespace tracer::storage {
namespace {

constexpr const char* kSample = R"(tracer_diskspecs v1

# The Table II testbed drive.
disk seagate-7200.12 {
  capacity_gb        500
  rpm                7200
  cylinders          100000
  track_to_track_ms  1.0
  full_stroke_ms     15.0
  settle_ms          0.4
  command_overhead_ms 0.10
  outer_rate_mbps    125   # outer zone
  inner_rate_mbps    60
  idle_watts         8.0
  seek_watts         4.5
  transfer_watts     2.2
  write_watts        0.6
  standby_watts      1.2
  spin_up_s          6.0
  spin_up_watts      16.0
}

disk laptop-5400 {
  capacity_gb        250
  rpm                5400
  cylinders          80000
  full_stroke_ms     18.0
  outer_rate_mbps    90
  inner_rate_mbps    45
  idle_watts         2.5
}
)";

TEST(DiskSpec, ParsesSampleBlocks) {
  const auto specs = parse_diskspecs(kSample);
  ASSERT_EQ(specs.size(), 2u);
  const HddParams& seagate = specs.at("seagate-7200.12");
  EXPECT_EQ(seagate.name, "seagate-7200.12");
  EXPECT_EQ(seagate.capacity, 500'000'000'000ULL);
  EXPECT_DOUBLE_EQ(seagate.rpm, 7200.0);
  EXPECT_EQ(seagate.cylinders, 100000u);
  EXPECT_DOUBLE_EQ(seagate.track_to_track_seek, 1.0e-3);
  EXPECT_DOUBLE_EQ(seagate.outer_rate_mbps, 125.0);
  EXPECT_DOUBLE_EQ(seagate.idle_watts, 8.0);
  EXPECT_DOUBLE_EQ(seagate.spin_up_time, 6.0);
}

TEST(DiskSpec, OmittedKeysKeepDefaults) {
  const auto specs = parse_diskspecs(kSample);
  const HddParams& laptop = specs.at("laptop-5400");
  EXPECT_DOUBLE_EQ(laptop.rpm, 5400.0);
  // settle_ms was omitted -> the HddParams default survives.
  EXPECT_DOUBLE_EQ(laptop.settle_time, HddParams{}.settle_time);
}

TEST(DiskSpec, ParsedParamsBuildAWorkingModel) {
  const auto specs = parse_diskspecs(kSample);
  sim::Simulator sim;
  HddModel hdd(sim, specs.at("seagate-7200.12"), 1);
  bool done = false;
  CallbackSink sink;
  hdd.submit(IoRequest{1, 0, 4096, OpType::kRead},
             sink.bind([&done](const IoCompletion&) { done = true; }));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(hdd.power_at(0.0), 8.0);
}

TEST(DiskSpec, RejectsMalformedInput) {
  auto expect_fail = [](const std::string& text, const char* needle) {
    try {
      parse_diskspecs(text);
      FAIL() << "expected throw: " << needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_fail("disk a {\n}\n", "header");
  expect_fail("tracer_diskspecs v1\njunk line\n", "disk <name>");
  expect_fail("tracer_diskspecs v1\ndisk a {\n  bogus_key 5\n}\n",
              "unknown key");
  expect_fail("tracer_diskspecs v1\ndisk a {\n  rpm fast\n}\n", "bad value");
  expect_fail("tracer_diskspecs v1\ndisk a {\n  rpm 7200\n", "unterminated");
  expect_fail("tracer_diskspecs v1\n", "empty");
  expect_fail(
      "tracer_diskspecs v1\ndisk a {\n  capacity_gb 1\n  rpm 7200\n}\n"
      "disk a {\n  capacity_gb 1\n  rpm 7200\n}\n",
      "duplicate");
}

TEST(DiskSpec, RejectsPhysicallyInvalidSpecs) {
  auto expect_fail = [](const char* body, const char* needle) {
    const std::string text =
        std::string("tracer_diskspecs v1\ndisk a {\n") + body + "}\n";
    try {
      parse_diskspecs(text);
      FAIL() << "expected throw: " << needle;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_fail("  capacity_gb 0\n  rpm 7200\n", "capacity");
  expect_fail("  capacity_gb 100\n  rpm 0\n", "rpm");
  expect_fail(
      "  capacity_gb 100\n  rpm 7200\n  track_to_track_ms 5\n"
      "  full_stroke_ms 2\n",
      "full stroke");
  expect_fail("  capacity_gb 100\n  rpm 7200\n  idle_watts -1\n",
              "negative power");
}

TEST(DiskSpec, FormatParseRoundTrip) {
  HddParams params;
  params.capacity = 320'000'000'000ULL;
  params.rpm = 10000.0;
  params.idle_watts = 9.5;
  params.spin_up_time = 4.5;
  const std::string text = format_diskspec("enterprise-10k", params);
  const auto specs = parse_diskspecs(text);
  ASSERT_EQ(specs.size(), 1u);
  const HddParams& parsed = specs.at("enterprise-10k");
  EXPECT_EQ(parsed.capacity, params.capacity);
  EXPECT_DOUBLE_EQ(parsed.rpm, params.rpm);
  EXPECT_DOUBLE_EQ(parsed.idle_watts, params.idle_watts);
  EXPECT_DOUBLE_EQ(parsed.spin_up_time, params.spin_up_time);
}

TEST(DiskSpec, LoadsFromFile) {
  const auto path =
      std::filesystem::temp_directory_path() / "tracer_diskspec_test.spec";
  {
    std::ofstream out(path);
    out << kSample;
  }
  const auto specs = load_diskspecs(path.string());
  EXPECT_EQ(specs.size(), 2u);
  std::filesystem::remove(path);
  EXPECT_THROW(load_diskspecs(path.string()), std::runtime_error);
}

}  // namespace
}  // namespace tracer::storage
