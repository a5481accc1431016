#include "net/message.h"

#include <sstream>
#include <stdexcept>

#include "net/channel.h"
#include "util/binary_io.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace tracer::net {

const char* to_string(MessageType type) {
  switch (type) {
    case MessageType::kAck: return "ACK";
    case MessageType::kError: return "ERROR";
    case MessageType::kHeartbeat: return "HEARTBEAT";
    case MessageType::kConfigureTest: return "CONFIGURE_TEST";
    case MessageType::kStartTest: return "START_TEST";
    case MessageType::kStopTest: return "STOP_TEST";
    case MessageType::kPerfResult: return "PERF_RESULT";
    case MessageType::kProgress: return "PROGRESS";
    case MessageType::kShardAssign: return "SHARD_ASSIGN";
    case MessageType::kShardRecord: return "SHARD_RECORD";
    case MessageType::kShardDone: return "SHARD_DONE";
    case MessageType::kLeaseRenew: return "LEASE_RENEW";
  }
  return "UNKNOWN";
}

void Message::set(const std::string& key, const std::string& value) {
  fields[key] = value;
}

void Message::set_double(const std::string& key, double value) {
  // %.17g (format_lossless) round-trips every finite double exactly. The
  // fleet layer depends on this: a record that crosses the wire must merge
  // into the journal bit-identical to one produced locally (the old %.9g
  // silently lost the low mantissa bits of every value it carried).
  fields[key] = util::format_lossless(value);
}

void Message::set_u64(const std::string& key, std::uint64_t value) {
  fields[key] = std::to_string(value);
}

std::optional<std::string> Message::get(const std::string& key) const {
  auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  return it->second;
}

std::optional<double> Message::get_double(const std::string& key) const {
  auto v = get(key);
  if (!v) return std::nullopt;
  double out = 0.0;
  if (!util::parse_double(*v, out)) return std::nullopt;
  return out;
}

std::optional<std::uint64_t> Message::get_u64(const std::string& key) const {
  auto v = get(key);
  if (!v) return std::nullopt;
  std::uint64_t out = 0;
  if (!util::parse_u64(*v, out)) return std::nullopt;
  return out;
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size) {
  return util::fnv1a(data, size);
}

std::vector<std::uint8_t> Message::serialize() const {
  std::ostringstream buffer;
  util::BinaryWriter writer(buffer);
  writer.u16(static_cast<std::uint16_t>(type));
  writer.u32(sequence);
  writer.u32(request_id);
  writer.u32(static_cast<std::uint32_t>(fields.size()));
  for (const auto& [key, value] : fields) {
    writer.str(key);
    writer.str(value);
  }
  const std::string data = buffer.str();
  std::vector<std::uint8_t> frame(data.begin(), data.end());
  const std::uint64_t checksum = fnv1a(frame.data(), frame.size());
  for (std::size_t i = 0; i < 8; ++i) {
    frame.push_back(static_cast<std::uint8_t>(checksum >> (8 * i)));
  }
  return frame;
}

std::optional<Message> Message::try_deserialize(
    const std::vector<std::uint8_t>& frame) {
  // Header (type+sequence+request_id+count = 14) plus the trailing
  // checksum: anything shorter cannot be a frame.
  constexpr std::size_t kMinFrame = 14 + 8;
  if (frame.size() < kMinFrame || frame.size() > kMaxFrameBytes) {
    return std::nullopt;
  }
  const std::size_t body = frame.size() - 8;
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(frame[body + i]) << (8 * i);
  }
  if (fnv1a(frame.data(), body) != stored) return std::nullopt;

  std::istringstream buffer(
      std::string(frame.begin(), frame.begin() + static_cast<long>(body)));
  util::BinaryReader reader(buffer);
  Message message;
  try {
    const std::uint16_t raw_type = reader.u16();
    switch (static_cast<MessageType>(raw_type)) {
      case MessageType::kAck:
      case MessageType::kError:
      case MessageType::kHeartbeat:
      case MessageType::kConfigureTest:
      case MessageType::kStartTest:
      case MessageType::kStopTest:
      case MessageType::kPerfResult:
      case MessageType::kProgress:
      case MessageType::kShardAssign:
      case MessageType::kShardRecord:
      case MessageType::kShardDone:
      case MessageType::kLeaseRenew:
        message.type = static_cast<MessageType>(raw_type);
        break;
      default:
        return std::nullopt;
    }
    message.sequence = reader.u32();
    message.request_id = reader.u32();
    const std::uint32_t count = reader.u32();
    if (count > kMaxMessageFields) return std::nullopt;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string key = reader.str(1 << 16);
      std::string value = reader.str(1 << 16);
      // A key appearing twice means a forged or mangled frame, not a
      // preference for either value: reject the whole thing.
      if (!message.fields.emplace(std::move(key), std::move(value)).second) {
        return std::nullopt;
      }
    }
    if (!reader.at_eof()) return std::nullopt;  // trailing garbage
  } catch (const std::exception&) {
    return std::nullopt;  // truncated body
  }
  return message;
}

Message Message::deserialize(const std::vector<std::uint8_t>& frame) {
  auto message = try_deserialize(frame);
  if (!message) {
    throw std::runtime_error("Message: malformed frame");
  }
  return *std::move(message);
}

Message make_ack(std::uint32_t sequence) {
  Message message;
  message.type = MessageType::kAck;
  message.sequence = sequence;
  return message;
}

Message make_error(std::uint32_t sequence, const std::string& reason) {
  Message message;
  message.type = MessageType::kError;
  message.sequence = sequence;
  message.set("reason", reason);
  return message;
}

Message make_heartbeat(std::uint64_t tick) {
  Message message;
  message.type = MessageType::kHeartbeat;
  message.sequence = 0;
  message.set_u64("tick", tick);
  return message;
}

}  // namespace tracer::net
