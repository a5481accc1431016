#include "net/parser.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

namespace tracer::net {
namespace {

Message round_trip(const Message& message) {
  return Parser::parse_command(Parser::format_message(message));
}

TEST(Parser, ParsesCommandWithFields) {
  const Message message =
      Parser::parse_command("CONFIGURE_TEST rs=4K rnd=50 rd=0 load=30");
  EXPECT_EQ(message.type, MessageType::kConfigureTest);
  EXPECT_EQ(*message.get("rs"), "4K");
  EXPECT_EQ(*message.get("load"), "30");
  EXPECT_EQ(message.fields.size(), 4u);
}

TEST(Parser, ParsesBareCommand) {
  const Message message = Parser::parse_command("START_TEST");
  EXPECT_EQ(message.type, MessageType::kStartTest);
  EXPECT_TRUE(message.fields.empty());
}

TEST(Parser, ToleratesExtraWhitespace) {
  const Message message = Parser::parse_command("  STOP_TEST   ch=0  ");
  EXPECT_EQ(message.type, MessageType::kStopTest);
  EXPECT_EQ(*message.get("ch"), "0");
}

TEST(Parser, RejectsUnknownCommand) {
  EXPECT_THROW(Parser::parse_command("EXPLODE now=yes"), std::runtime_error);
  EXPECT_THROW(Parser::parse_command(""), std::runtime_error);
  EXPECT_THROW(Parser::parse_command("   "), std::runtime_error);
  // The retired power-analyzer commands are unknown like any other word.
  for (const char* verb : {"INIT", "START", "STOP", "RESULT"}) {
    EXPECT_THROW(Parser::parse_command(std::string("POWER_") + verb),
                 std::runtime_error)
        << verb;
  }
}

TEST(Parser, RejectsMalformedFields) {
  EXPECT_THROW(Parser::parse_command("START_TEST novalue"),
               std::runtime_error);
  EXPECT_THROW(Parser::parse_command("START_TEST =empty"),
               std::runtime_error);
}

TEST(Parser, FormatsMessageBack) {
  Message message;
  message.type = MessageType::kPerfResult;
  message.set("watts", "81.2");
  message.set("amps", "0.37");
  EXPECT_EQ(Parser::format_message(message),
            "PERF_RESULT amps=0.37 watts=81.2");
}

TEST(Parser, RoundTripsThroughBothDirections) {
  const std::string line = "CONFIGURE_TEST load=50 rd=25 rnd=0 rs=16K";
  const Message message = Parser::parse_command(line);
  EXPECT_EQ(Parser::format_message(message), line);
}

TEST(Parser, ValueMayContainEqualsSign) {
  const Message message = Parser::parse_command("PROGRESS note=a=b");
  EXPECT_EQ(*message.get("note"), "a=b");
}

// Regression: pre-quoting, format_message emitted `reason=no such file`
// verbatim and parse_command split it into a field plus two malformed
// tokens — every ERROR with a human-readable message corrupted the wire.
TEST(Parser, RoundTripsValueWithSpaces) {
  Message message;
  message.type = MessageType::kError;
  message.set("reason", "no such file: trace_04.blk");
  const std::string wire = Parser::format_message(message);
  EXPECT_EQ(wire, "ERROR reason=\"no such file: trace_04.blk\"");
  const Message parsed = Parser::parse_command(wire);
  EXPECT_EQ(*parsed.get("reason"), "no such file: trace_04.blk");
}

TEST(Parser, RoundTripsSpecialCharacters) {
  Message message;
  message.type = MessageType::kProgress;
  message.set("quote", "say \"hi\"");
  message.set("backslash", "C:\\traces\\a.blk");
  message.set("newline", "line1\nline2");
  message.set("tab", "a\tb");
  message.set("cr", "a\rb");
  message.set("empty", "");
  message.set("equals", "a=b=c");
  message.set("plain", "unquoted-survivor");
  const Message parsed = round_trip(message);
  EXPECT_EQ(parsed.fields, message.fields);
}

TEST(Parser, PlainValuesStayUnquotedOnTheWire) {
  // Backward compatibility: the quoting layer must not disturb the classic
  // wire format for values that never needed it.
  Message message;
  message.type = MessageType::kConfigureTest;
  message.set("rs", "16K");
  message.set("load", "60");
  EXPECT_EQ(Parser::format_message(message), "CONFIGURE_TEST load=60 rs=16K");
}

TEST(Parser, QuotedFieldMayContainSpacesInKeyValueForm) {
  const Message parsed =
      Parser::parse_command("ERROR reason=\"disk on fire\" code=7");
  EXPECT_EQ(*parsed.get("reason"), "disk on fire");
  EXPECT_EQ(*parsed.get("code"), "7");
}

TEST(Parser, RejectsBrokenQuoting) {
  EXPECT_THROW(Parser::parse_command("ERROR reason=\"unterminated"),
               std::runtime_error);
  EXPECT_THROW(Parser::parse_command("ERROR reason=\"dangling\\"),
               std::runtime_error);
  EXPECT_THROW(Parser::parse_command("ERROR reason=\"bad\\qescape\""),
               std::runtime_error);
}

TEST(Parser, RejectsUnformattableKeys) {
  Message message;
  message.type = MessageType::kProgress;
  message.fields["bad key"] = "v";
  EXPECT_THROW(Parser::format_message(message), std::invalid_argument);
  message.fields.clear();
  message.fields["k=v"] = "v";
  EXPECT_THROW(Parser::format_message(message), std::invalid_argument);
}

// Property: format ∘ parse is the identity on arbitrary printable-and-
// escapable values. 500 random messages with values drawn from a hostile
// alphabet (spaces, quotes, backslashes, '=', control chars).
TEST(Parser, FuzzRoundTripPreservesEveryField) {
  static constexpr char kAlphabet[] =
      " abcXYZ019\"\\=\n\t\r:.,/_-";
  std::mt19937_64 rng(20260806);
  std::uniform_int_distribution<std::size_t> alpha(
      0, sizeof(kAlphabet) - 2);  // exclude the NUL terminator
  std::uniform_int_distribution<int> value_len(0, 24);
  std::uniform_int_distribution<int> field_count(0, 6);

  for (int iter = 0; iter < 500; ++iter) {
    Message message;
    message.type = MessageType::kProgress;
    const int fields = field_count(rng);
    for (int f = 0; f < fields; ++f) {
      std::string value;
      const int len = value_len(rng);
      for (int i = 0; i < len; ++i) value += kAlphabet[alpha(rng)];
      message.set("k" + std::to_string(f), value);
    }
    const Message parsed = round_trip(message);
    EXPECT_EQ(parsed.type, message.type);
    EXPECT_EQ(parsed.fields, message.fields) << "iter " << iter << " wire: "
                                             << Parser::format_message(message);
  }
}

}  // namespace
}  // namespace tracer::net
