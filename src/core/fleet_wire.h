// Wire codecs for the fleet campaign protocol (docs/FLEET.md): the message
// payloads flowing between core::CampaignCoordinator and
// core::CampaignWorkerService over net:: frames. Like core/remote.h's
// codecs, the decoders are strict — every expected field present, nothing
// extra, or nullopt — because a mangled frame must never default-fill a
// shard assignment or a result record.
//
// Layering note: the MessageType values (kShardAssign/kShardRecord/
// kShardDone/kLeaseRenew) live in net/message.h with the rest of the wire
// enum; the payload codecs live here in core because they speak
// workload::WorkloadMode and db::TestRecord, which net:: does not know.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "db/record.h"
#include "net/message.h"
#include "util/types.h"
#include "workload/workload_mode.h"

namespace tracer::core {

/// Stable identity of a campaign: a human-chosen id plus a fingerprint of
/// the full test matrix. A test is its index in the matrix, and its journal
/// row has test_id = index. The journal belongs to exactly one identity — a
/// driver resuming a journal under a different matrix would silently
/// mis-key every record, so both campaign drivers (CampaignRunner and
/// CampaignCoordinator) bind the journal with claim() before touching it.
struct CampaignIdentity {
  std::string id;                 ///< e.g. "grid-125x10"
  std::uint64_t fingerprint = 0;  ///< FNV-1a over the serialised matrix

  /// Deterministic fingerprint of a test matrix: order-sensitive, exact on
  /// every double (test identity is the matrix INDEX, so order matters).
  static std::uint64_t fingerprint_of(
      const std::vector<workload::WorkloadMode>& matrix);

  /// Bind `journal` to this identity through its `<journal>.campaign`
  /// sidecar, creating the parent directory first. An existing sidecar
  /// must match; a missing one is written (and the write checked) only
  /// when the journal is blank (CampaignJournal::is_blank) — any other
  /// file came from an older version or another tool and is left
  /// untouched. Throws std::runtime_error on a mismatch, a sidecar-less
  /// non-blank journal, or a failed write.
  void claim(const std::filesystem::path& journal) const;
};

/// One test inside a shard: its stable index in the campaign matrix plus
/// the mode to run. The index is the journal dedup key (db::JournalMerger).
struct FleetTest {
  std::uint32_t index = 0;
  workload::WorkloadMode mode;

  friend bool operator==(const FleetTest&, const FleetTest&) = default;
};

/// Shard codec capacity: each test is one wire field, plus a fixed header;
/// 1024 tests stays comfortably inside net::kMaxMessageFields and
/// net::kMaxFrameBytes.
inline constexpr std::size_t kMaxShardTests = 1024;

/// SHARD_ASSIGN payload: a time-bounded lease on a slice of the matrix.
/// `epoch` is the lease generation — a stolen shard is re-issued under a
/// fresh epoch, so late traffic from the previous holder is recognisably
/// stale.
struct ShardAssignment {
  std::uint64_t fingerprint = 0;
  std::uint32_t shard_id = 0;
  std::uint32_t epoch = 0;
  Seconds lease = 0.0;  ///< advisory: how long until the coordinator steals
  std::vector<FleetTest> tests;

  friend bool operator==(const ShardAssignment&,
                         const ShardAssignment&) = default;
};

/// SHARD_RECORD payload: one completed test, streamed as it lands.
struct ShardRecord {
  std::uint64_t fingerprint = 0;
  std::uint32_t shard_id = 0;
  std::uint32_t epoch = 0;
  std::uint32_t index = 0;  ///< matrix index; doubles as record.test_id
  db::TestRecord record;
};

/// LEASE_RENEW payload: keepalive for a held shard between completions.
struct LeaseRenew {
  std::uint64_t fingerprint = 0;
  std::uint32_t shard_id = 0;
  std::uint32_t epoch = 0;
  std::uint64_t completed = 0;  ///< tests finished so far (progress report)
};

/// SHARD_DONE payload: every test in the shard has been acked.
struct ShardDone {
  std::uint64_t fingerprint = 0;
  std::uint32_t shard_id = 0;
  std::uint32_t epoch = 0;
};

net::Message encode_shard_assign(const ShardAssignment& assign);
std::optional<ShardAssignment> decode_shard_assign(
    const net::Message& message);

net::Message encode_shard_record(const ShardRecord& record);
std::optional<ShardRecord> decode_shard_record(const net::Message& message);

net::Message encode_lease_renew(const LeaseRenew& renew);
std::optional<LeaseRenew> decode_lease_renew(const net::Message& message);

net::Message encode_shard_done(const ShardDone& done);
std::optional<ShardDone> decode_shard_done(const net::Message& message);

/// The coordinator's reply to SHARD_RECORD / SHARD_DONE: an ACK carrying a
/// `revoked` flag. revoked=1 tells the worker its lease is gone (the shard
/// was stolen) and it should abandon the shard instead of burning time on
/// tests whose records will all be deduplicated.
net::Message make_shard_ack(std::uint32_t sequence, bool revoked);
bool ack_revoked(const net::Message& reply);

}  // namespace tracer::core
