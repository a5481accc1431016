#include "net/message.h"

#include <gtest/gtest.h>

#include <string>

#include "net/channel.h"
#include "util/rng.h"

namespace tracer::net {
namespace {

// Rewrite a mutated frame's FNV-1a trailer so it passes the checksum gate
// and exercises the structural guards behind it.
void fix_checksum(std::vector<std::uint8_t>& frame) {
  const std::uint64_t digest = fnv1a(frame.data(), frame.size() - 8);
  for (int i = 0; i < 8; ++i) {
    frame[frame.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(digest >> (8 * i));
  }
}

TEST(Message, SerializeDeserializeRoundTrip) {
  Message original;
  original.type = MessageType::kConfigureTest;
  original.sequence = 42;
  original.set("rs", "4K");
  original.set_double("load", 0.3);
  original.set_u64("count", 123456789);
  const Message decoded = Message::deserialize(original.serialize());
  EXPECT_EQ(decoded, original);
}

TEST(Message, EmptyFieldsRoundTrip) {
  Message original;
  original.type = MessageType::kAck;
  original.sequence = 1;
  EXPECT_EQ(Message::deserialize(original.serialize()), original);
}

TEST(Message, TypedGetters) {
  Message message;
  message.set_double("d", 3.5);
  message.set_u64("u", 99);
  message.set("s", "text");
  EXPECT_DOUBLE_EQ(*message.get_double("d"), 3.5);
  EXPECT_EQ(*message.get_u64("u"), 99u);
  EXPECT_EQ(*message.get("s"), "text");
  EXPECT_FALSE(message.get("missing").has_value());
  EXPECT_FALSE(message.get_double("s").has_value());
  EXPECT_FALSE(message.get_u64("s").has_value());
}

TEST(Message, DoubleFieldsKeepPrecision) {
  Message message;
  message.set_double("v", 0.123456789);
  EXPECT_NEAR(*message.get_double("v"), 0.123456789, 1e-9);
}

TEST(Message, UnknownTypeRejected) {
  Message original = make_ack(1);
  auto frame = original.serialize();
  frame[0] = 0xFF;  // clobber the type field
  frame[1] = 0xFF;
  EXPECT_THROW(Message::deserialize(frame), std::runtime_error);
}

TEST(Message, RetiredPowerTypeCodesDecodeToNullopt) {
  // Codes 30-32 and 40 carried the power-analyzer commands. A frame with
  // one of them and a valid checksum is now an unknown type.
  auto frame_with_type = [](std::uint16_t code) {
    auto frame = make_ack(1).serialize();
    frame[0] = static_cast<std::uint8_t>(code & 0xFF);
    frame[1] = static_cast<std::uint8_t>(code >> 8);
    const std::size_t body = frame.size() - 8;
    const std::uint64_t checksum = fnv1a(frame.data(), body);
    for (std::size_t i = 0; i < 8; ++i) {
      frame[body + i] = static_cast<std::uint8_t>(checksum >> (8 * i));
    }
    return frame;
  };
  // Control: the re-checksummed frame decodes with a live code.
  const auto live = Message::try_deserialize(frame_with_type(10));
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->type, MessageType::kConfigureTest);
  for (std::uint16_t code : {30, 31, 32, 40}) {
    EXPECT_FALSE(Message::try_deserialize(frame_with_type(code)).has_value())
        << "type code " << code;
  }
}

TEST(Message, TruncatedFrameRejected) {
  Message original;
  original.type = MessageType::kPerfResult;
  original.set("key", "value");
  auto frame = original.serialize();
  frame.resize(frame.size() - 3);
  EXPECT_THROW(Message::deserialize(frame), std::runtime_error);
}

TEST(Message, MakeAckAndError) {
  const Message ack = make_ack(7);
  EXPECT_EQ(ack.type, MessageType::kAck);
  EXPECT_EQ(ack.sequence, 7u);
  const Message error = make_error(9, "kaboom");
  EXPECT_EQ(error.type, MessageType::kError);
  EXPECT_EQ(*error.get("reason"), "kaboom");
}

TEST(Message, AllTypesHaveNames) {
  for (MessageType type : {
           MessageType::kAck, MessageType::kError,
           MessageType::kConfigureTest, MessageType::kStartTest,
           MessageType::kStopTest, MessageType::kPerfResult,
           MessageType::kHeartbeat, MessageType::kProgress,
           MessageType::kShardAssign, MessageType::kShardRecord,
           MessageType::kShardDone, MessageType::kLeaseRenew,
       }) {
    EXPECT_STRNE(to_string(type), "UNKNOWN");
  }
}

TEST(Message, BinaryFrameIsCompact) {
  const Message ack = make_ack(1);
  // type(2) + seq(4) + request_id(4) + count(4) + checksum(8) = 22 bytes.
  EXPECT_EQ(ack.serialize().size(), 22u);
}

TEST(Message, RequestIdRoundTrips) {
  Message original = make_ack(5);
  original.request_id = 987654;
  const Message decoded = Message::deserialize(original.serialize());
  EXPECT_EQ(decoded.request_id, 987654u);
  EXPECT_EQ(decoded, original);
}

TEST(Message, TryDeserializeMatchesDeserializeOnGoodFrames) {
  Message original;
  original.type = MessageType::kPerfResult;
  original.sequence = 11;
  original.request_id = 22;
  original.set("device", "raid5");
  original.set_double("iops", 1234.5);
  auto decoded = Message::try_deserialize(original.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(Message, TryDeserializeRejectsUndersizedFrames) {
  // Anything below the 22-byte header+checksum minimum is garbage.
  for (std::size_t size = 0; size < 22; ++size) {
    EXPECT_FALSE(
        Message::try_deserialize(std::vector<std::uint8_t>(size, 0)).has_value())
        << "accepted a " << size << "-byte frame";
  }
}

TEST(Message, TryDeserializeRejectsOversizedFrames) {
  std::vector<std::uint8_t> huge(kMaxFrameBytes + 1, 0);
  EXPECT_FALSE(Message::try_deserialize(huge).has_value());
}

TEST(Message, TryDeserializeRejectsHugeFieldCount) {
  // A frame whose header claims 2^32-ish fields must be rejected before
  // any allocation loop, not after.
  Message original = make_ack(1);
  auto frame = original.serialize();
  frame[10] = 0xFF;  // little-endian field count at offset 10
  frame[11] = 0xFF;
  frame[12] = 0xFF;
  frame[13] = 0xFF;
  fix_checksum(frame);  // get past the checksum to the count guard itself
  EXPECT_FALSE(Message::try_deserialize(frame).has_value());
}

TEST(Message, TryDeserializeRejectsTrailingGarbage) {
  Message original;
  original.type = MessageType::kProgress;
  original.set("k", "v");
  auto frame = original.serialize();
  frame.insert(frame.end() - 8, {0xDE, 0xAD});  // junk before the checksum
  fix_checksum(frame);  // valid digest over the padded body
  EXPECT_FALSE(Message::try_deserialize(frame).has_value());
}

// Fuzz: every single-bit flip anywhere in the frame must be caught — the
// FNV-1a trailer guarantees it (each step is a bijection on the digest).
// This is the property net::FaultyEndpoint's corrupt fault leans on.
TEST(MessageFuzz, EverySingleBitFlipIsRejected) {
  Message original;
  original.type = MessageType::kConfigureTest;
  original.sequence = 77;
  original.request_id = 88;
  original.set_u64("request_size", 4096);
  original.set_double("load_proportion", 0.7);
  const auto frame = original.serialize();
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto mutated = frame;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(Message::try_deserialize(mutated).has_value())
        << "bit " << bit << " flip slipped through";
  }
}

TEST(MessageFuzz, RandomTruncationsNeverDecode) {
  Message original;
  original.type = MessageType::kPerfResult;
  original.set("trace", "ws_4K_r100_rnd100");
  original.set_double("mbps", 512.25);
  const auto frame = original.serialize();
  for (std::size_t size = 0; size < frame.size(); ++size) {
    auto cut = frame;
    cut.resize(size);
    EXPECT_FALSE(Message::try_deserialize(cut).has_value())
        << "truncation to " << size << " bytes slipped through";
  }
}

TEST(MessageFuzz, RandomMessagesRoundTripThroughBytes) {
  util::Rng rng(20260807);
  for (int iteration = 0; iteration < 200; ++iteration) {
    Message original;
    original.type = MessageType::kProgress;
    original.sequence = static_cast<std::uint32_t>(rng.next());
    original.request_id = static_cast<std::uint32_t>(rng.next());
    const int field_count = static_cast<int>(rng.next() % 8);
    for (int f = 0; f < field_count; ++f) {
      std::string key = "k" + std::to_string(rng.next() % 1000);
      std::string value;
      const std::size_t len = rng.next() % 64;
      for (std::size_t c = 0; c < len; ++c) {
        value.push_back(static_cast<char>(rng.next() % 256));
      }
      original.set(key, value);  // arbitrary bytes, including NUL
    }
    auto decoded = Message::try_deserialize(original.serialize());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, original);
  }
}

TEST(MessageFuzz, RandomByteNoiseNeverCrashesDecoder) {
  util::Rng rng(42424242);
  for (int iteration = 0; iteration < 500; ++iteration) {
    const std::size_t size = rng.next() % 256;
    std::vector<std::uint8_t> noise(size);
    for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next());
    // Random bytes essentially never carry a valid checksum; the point is
    // that decode returns (rather than throwing or crashing) every time.
    auto decoded = Message::try_deserialize(noise);
    if (decoded.has_value()) {
      // Astronomically unlikely, but if it happens it must re-serialize.
      EXPECT_EQ(Message::try_deserialize(decoded->serialize()), decoded);
    }
  }
}

}  // namespace
}  // namespace tracer::net
