// Wire protocol between the evaluation host, the workload generator and the
// fleet campaign workers (§III-A1: communicator / parser modules). Power is
// metered in process by power::PowerAnalyzer, so no frame reaches a meter
// (DESIGN.md §2).
//
// A message is a typed command or report with a string key-value payload,
// serialised to a length-prefixed little-endian frame. The testbed ran
// these over TCP between three machines (Fig 1); in-process the same frames
// flow over net::Channel, so the control plane is exercised byte-for-byte.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tracer::net {

enum class MessageType : std::uint16_t {
  kAck = 0,
  kError = 1,
  kHeartbeat = 2,  ///< keepalive; sequence 0, never a request or reply
  // Evaluation host -> workload generator
  kConfigureTest = 10,  ///< workload mode + load proportion
  kStartTest = 11,
  kStopTest = 12,
  // Workload generator -> evaluation host
  kPerfResult = 20,  ///< IOPS / MBPS / response time
  kProgress = 21,    ///< per-cycle progress during a run
  // 30-32 and 40 are retired (power-analyzer commands). Do not reuse them:
  // a frame from an older peer must decode to nullopt, not as another type.
  // Fleet campaign coordinator <-> campaign worker (docs/FLEET.md)
  kShardAssign = 50,  ///< coordinator -> worker: leased slice of the matrix
  kShardRecord = 51,  ///< worker -> coordinator: one completed test's record
  kShardDone = 52,    ///< worker -> coordinator: every test in shard merged
  kLeaseRenew = 53,   ///< worker -> coordinator: keepalive for a held lease
};

const char* to_string(MessageType type);

/// Decode refuses frames claiming more fields than this — a corrupted count
/// must not drive a multi-gigabyte allocation loop.
inline constexpr std::uint32_t kMaxMessageFields = 4096;

/// Wire layout: type u16 | sequence u32 | request_id u32 | field count u32 |
/// fields (length-prefixed key/value strings) | FNV-1a checksum u64 over
/// everything before it. Minimum frame = 22 bytes. The checksum detects the
/// bit corruption a lossy link (or net::FaultyEndpoint) introduces; each
/// FNV-1a step is a bijection on the digest state, so any single-bit flip
/// is caught.
struct Message {
  MessageType type = MessageType::kAck;
  std::uint32_t sequence = 0;  ///< transport correlation; fresh per frame
  /// RPC identity, stable across retransmits of the same logical request
  /// (0 = not an RPC: heartbeats, unsolicited streams, legacy callers).
  /// Servers dedup on it and replay the cached reply instead of re-running
  /// a non-idempotent command like START_TEST.
  std::uint32_t request_id = 0;
  std::map<std::string, std::string> fields;

  /// Typed field helpers; get_* return nullopt when absent or malformed.
  void set(const std::string& key, const std::string& value);
  void set_double(const std::string& key, double value);
  void set_u64(const std::string& key, std::uint64_t value);
  std::optional<std::string> get(const std::string& key) const;
  std::optional<double> get_double(const std::string& key) const;
  std::optional<std::uint64_t> get_u64(const std::string& key) const;

  std::vector<std::uint8_t> serialize() const;
  /// Throws std::runtime_error on malformed frames.
  static Message deserialize(const std::vector<std::uint8_t>& frame);
  /// Non-throwing decode: nullopt on any malformed frame — truncation, an
  /// unknown type, an oversized frame or field count, a duplicated key, or
  /// a checksum mismatch. The receive path uses this so one corrupted
  /// frame is dropped (and counted) instead of unwinding the service.
  static std::optional<Message> try_deserialize(
      const std::vector<std::uint8_t>& frame);

  friend bool operator==(const Message&, const Message&) = default;
};

/// Convenience constructors for the common replies.
Message make_ack(std::uint32_t sequence);
Message make_error(std::uint32_t sequence, const std::string& reason);
/// Keepalive frame (sequence 0, request_id 0). `tick` makes successive
/// heartbeats distinct on the wire.
Message make_heartbeat(std::uint64_t tick);

/// FNV-1a 64-bit over a byte range — the frame checksum and the content
/// hash behind net::FaultyEndpoint's deterministic fault decisions. Each
/// step is a bijection on the 64-bit state, so any single-bit change
/// propagates to the digest. (Now an alias for util::fnv1a, which the
/// journal's row checksums share.)
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size);

}  // namespace tracer::net
