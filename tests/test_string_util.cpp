#include "util/string_util.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/rng.h"

namespace tracer::util {
namespace {

TEST(Split, PreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Split, SingleField) {
  const auto parts = split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(SplitWhitespace, DropsRuns) {
  const auto parts = split_whitespace("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitWhitespace, EmptyInput) {
  EXPECT_TRUE(split_whitespace("").empty());
  EXPECT_TRUE(split_whitespace("   \t\n ").empty());
}

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with("raid5-hdd6", "raid5"));
  EXPECT_FALSE(starts_with("raid", "raid5"));
  EXPECT_TRUE(ends_with("trace.replay", ".replay"));
  EXPECT_FALSE(ends_with("replay", ".replay"));
}

TEST(ToLower, MixedCase) { EXPECT_EQ(to_lower("AbC1!"), "abc1!"); }

TEST(ParseU64, ValidAndInvalid) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_TRUE(parse_u64("  42 ", v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("12x", v));
  EXPECT_FALSE(parse_u64("-1", v));
}

TEST(ParseI64, Negative) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64("-99", v));
  EXPECT_EQ(v, -99);
}

TEST(ParseDouble, ValidAndInvalid) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("3.25", v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(parse_double("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("1.5junk", v));
}

TEST(ParseSize, Suffixes) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_size("512", v));
  EXPECT_EQ(v, 512u);
  EXPECT_TRUE(parse_size("512B", v));
  EXPECT_EQ(v, 512u);
  EXPECT_TRUE(parse_size("4K", v));
  EXPECT_EQ(v, 4096u);
  EXPECT_TRUE(parse_size("4k", v));
  EXPECT_EQ(v, 4096u);
  EXPECT_TRUE(parse_size("1M", v));
  EXPECT_EQ(v, 1048576u);
  EXPECT_TRUE(parse_size("2G", v));
  EXPECT_EQ(v, 2147483648u);
  EXPECT_FALSE(parse_size("", v));
  EXPECT_FALSE(parse_size("K", v));
  EXPECT_FALSE(parse_size("x4K", v));
}

TEST(FormatSize, RoundTripsParseSize) {
  for (std::uint64_t v : {512ull, 4096ull, 131072ull, 1048576ull,
                          1073741824ull, 1000ull, 21504ull}) {
    std::uint64_t parsed = 0;
    ASSERT_TRUE(parse_size(format_size(v), parsed)) << format_size(v);
    EXPECT_EQ(parsed, v);
  }
}

TEST(FormatSize, PicksLargestExactUnit) {
  EXPECT_EQ(format_size(4096), "4K");
  EXPECT_EQ(format_size(1048576), "1M");
  EXPECT_EQ(format_size(512), "512B");
  EXPECT_EQ(format_size(1536), "1536B");  // not a whole K
}

TEST(Format, PrintfStyle) {
  EXPECT_EQ(format("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(format("empty"), "empty");
}

std::string printf_17g(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

TEST(FormatLossless, MatchesPrintf17gOnSpecialValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 2.0 / 3.0, 1e-5, 1e-4, 123456.0,
      1e16, 1e17, 12345678901234567890.0, 1e100, -1e-300, DBL_MAX, -DBL_MAX,
      DBL_MIN, std::numeric_limits<double>::denorm_min(), 2.5e-310,
      -4.9406564584124654e-324, DBL_EPSILON, 1.0 + DBL_EPSILON, kInf, -kInf,
      kNan, -kNan};
  for (const double v : values) {
    EXPECT_EQ(format_lossless(v), printf_17g(v)) << printf_17g(v);
  }
}

TEST(FormatLossless, MatchesPrintf17gOnRandomBitPatterns) {
  // Every bit pattern is some double: finite values of every magnitude,
  // subnormals, infinities and NaNs with payloads.
  Rng rng(20241018);
  for (int i = 0; i < 100000; ++i) {
    const double v = std::bit_cast<double>(rng.next());
    ASSERT_EQ(format_lossless(v), printf_17g(v)) << i;
  }
}

TEST(FormatLossless, RoundTripsFiniteValues) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = std::bit_cast<double>(rng.next());
    if (!std::isfinite(v)) continue;
    double parsed = 0.0;
    ASSERT_TRUE(parse_double(format_lossless(v), parsed));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
              std::bit_cast<std::uint64_t>(v));
  }
}

}  // namespace
}  // namespace tracer::util
