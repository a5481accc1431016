#include "core/fleet_wire.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/remote.h"
#include "db/journal.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace tracer::core {

namespace {

/// One test as one wire field value: "index request_size random read load".
/// %.17g keeps every double exact, so the fingerprint a worker could
/// recompute from decoded modes matches the coordinator's.
std::string encode_test(const FleetTest& test) {
  return util::format("%" PRIu32 " %" PRIu64 " %.17g %.17g %.17g", test.index,
                      static_cast<std::uint64_t>(test.mode.request_size),
                      test.mode.random_ratio, test.mode.read_ratio,
                      test.mode.load_proportion);
}

std::optional<FleetTest> decode_test(const std::string& value) {
  FleetTest test;
  std::uint64_t request_size = 0;
  int consumed = 0;
  if (std::sscanf(value.c_str(),
                  "%" SCNu32 " %" SCNu64 " %lg %lg %lg%n", &test.index,
                  &request_size, &test.mode.random_ratio,
                  &test.mode.read_ratio, &test.mode.load_proportion,
                  &consumed) != 5 ||
      static_cast<std::size_t>(consumed) != value.size()) {
    return std::nullopt;
  }
  test.mode.request_size = request_size;
  return test;
}

/// Shared (fingerprint, shard, epoch) header handling.
void set_header(net::Message& message, std::uint64_t fingerprint,
                std::uint32_t shard_id, std::uint32_t epoch) {
  message.set_u64("fingerprint", fingerprint);
  message.set_u64("shard", shard_id);
  message.set_u64("epoch", epoch);
}

bool get_header(const net::Message& message, std::uint64_t& fingerprint,
                std::uint32_t& shard_id, std::uint32_t& epoch) {
  const auto fp = message.get_u64("fingerprint");
  const auto shard = message.get_u64("shard");
  const auto ep = message.get_u64("epoch");
  if (!fp || !shard || !ep || *shard > UINT32_MAX || *ep > UINT32_MAX) {
    return false;
  }
  fingerprint = *fp;
  shard_id = static_cast<std::uint32_t>(*shard);
  epoch = static_cast<std::uint32_t>(*ep);
  return true;
}

}  // namespace

std::uint64_t CampaignIdentity::fingerprint_of(
    const std::vector<workload::WorkloadMode>& matrix) {
  std::uint64_t digest = util::fnv1a(std::string_view("tracer-campaign-v1"));
  for (const auto& mode : matrix) {
    const std::string serialised = util::format(
        "%" PRIu64 "|%.17g|%.17g|%.17g;",
        static_cast<std::uint64_t>(mode.request_size), mode.random_ratio,
        mode.read_ratio, mode.load_proportion);
    digest = util::fnv1a(serialised, digest);
  }
  return digest;
}

void CampaignIdentity::claim(const std::filesystem::path& journal) const {
  if (journal.has_parent_path()) {
    std::filesystem::create_directories(journal.parent_path());
  }
  const std::filesystem::path sidecar = journal.string() + ".campaign";
  const std::string expected = "id=" + id + "\nfingerprint=" +
                               std::to_string(fingerprint) + "\n";
  if (std::filesystem::exists(sidecar)) {
    std::ifstream in(sidecar, std::ios::binary);
    const std::string found(std::istreambuf_iterator<char>(in), {});
    if (found != expected) {
      throw std::runtime_error(
          "campaign journal " + journal.string() +
          " belongs to a different campaign (identity sidecar mismatch); "
          "refusing to resume it");
    }
    return;
  }
  // Without a sidecar the file is not ours: rows in it were keyed by someone
  // else's notion of test_id, and anything that is not a journal would be
  // truncated by the journal's open-time recovery. Adopt only a journal
  // nothing has been appended to.
  if (!db::CampaignJournal::is_blank(journal)) {
    throw std::runtime_error(
        "campaign journal " + journal.string() +
        " is not empty but has no identity sidecar (written by an older "
        "version or another tool); move or delete it to start this "
        "campaign");
  }
  std::ofstream out(sidecar, std::ios::binary | std::ios::trunc);
  out << expected << std::flush;
  if (!out) {
    throw std::runtime_error("campaign journal: cannot write identity "
                             "sidecar " + sidecar.string());
  }
}

net::Message encode_shard_assign(const ShardAssignment& assign) {
  net::Message message;
  message.type = net::MessageType::kShardAssign;
  set_header(message, assign.fingerprint, assign.shard_id, assign.epoch);
  message.set_double("lease", assign.lease);
  message.set_u64("count", assign.tests.size());
  for (std::size_t i = 0; i < assign.tests.size(); ++i) {
    message.set(util::format("t%zu", i), encode_test(assign.tests[i]));
  }
  return message;
}

std::optional<ShardAssignment> decode_shard_assign(
    const net::Message& message) {
  ShardAssignment assign;
  if (!get_header(message, assign.fingerprint, assign.shard_id,
                  assign.epoch)) {
    return std::nullopt;
  }
  const auto lease = message.get_double("lease");
  const auto count = message.get_u64("count");
  if (!lease || !count || *count > kMaxShardTests) return std::nullopt;
  // Strict: header (5) plus exactly one field per test.
  if (message.fields.size() != 5 + *count) return std::nullopt;
  assign.lease = *lease;
  assign.tests.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto value = message.get(util::format("t%" PRIu64, i));
    if (!value) return std::nullopt;
    const auto test = decode_test(*value);
    if (!test) return std::nullopt;
    assign.tests.push_back(*test);
  }
  return assign;
}

net::Message encode_shard_record(const ShardRecord& record) {
  // Reuse the PERF_RESULT record codec for the 15 record fields, then bolt
  // the fleet routing header on with a reserved prefix.
  net::Message message = encode_record(record.record);
  message.type = net::MessageType::kShardRecord;
  message.set_u64("fleet.fingerprint", record.fingerprint);
  message.set_u64("fleet.shard", record.shard_id);
  message.set_u64("fleet.epoch", record.epoch);
  message.set_u64("fleet.index", record.index);
  message.set("fleet.timestamp", record.record.timestamp);
  return message;
}

std::optional<ShardRecord> decode_shard_record(const net::Message& message) {
  ShardRecord record;
  const auto fp = message.get_u64("fleet.fingerprint");
  const auto shard = message.get_u64("fleet.shard");
  const auto epoch = message.get_u64("fleet.epoch");
  const auto index = message.get_u64("fleet.index");
  const auto timestamp = message.get("fleet.timestamp");
  if (!fp || !shard || !epoch || !index || !timestamp ||
      *shard > UINT32_MAX || *epoch > UINT32_MAX || *index > UINT32_MAX) {
    return std::nullopt;
  }
  // Strip the fleet header and hand the rest to the strict record decoder
  // (exactly 15 fields, nothing missing, nothing extra).
  net::Message inner = message;
  inner.fields.erase("fleet.fingerprint");
  inner.fields.erase("fleet.shard");
  inner.fields.erase("fleet.epoch");
  inner.fields.erase("fleet.index");
  inner.fields.erase("fleet.timestamp");
  auto decoded = decode_record(inner);
  if (!decoded) return std::nullopt;
  record.fingerprint = *fp;
  record.shard_id = static_cast<std::uint32_t>(*shard);
  record.epoch = static_cast<std::uint32_t>(*epoch);
  record.index = static_cast<std::uint32_t>(*index);
  record.record = *std::move(decoded);
  record.record.timestamp = *timestamp;
  record.record.test_id = record.index;
  return record;
}

net::Message encode_lease_renew(const LeaseRenew& renew) {
  net::Message message;
  message.type = net::MessageType::kLeaseRenew;
  set_header(message, renew.fingerprint, renew.shard_id, renew.epoch);
  message.set_u64("completed", renew.completed);
  return message;
}

std::optional<LeaseRenew> decode_lease_renew(const net::Message& message) {
  LeaseRenew renew;
  if (message.fields.size() != 4) return std::nullopt;
  if (!get_header(message, renew.fingerprint, renew.shard_id, renew.epoch)) {
    return std::nullopt;
  }
  const auto completed = message.get_u64("completed");
  if (!completed) return std::nullopt;
  renew.completed = *completed;
  return renew;
}

net::Message encode_shard_done(const ShardDone& done) {
  net::Message message;
  message.type = net::MessageType::kShardDone;
  set_header(message, done.fingerprint, done.shard_id, done.epoch);
  return message;
}

std::optional<ShardDone> decode_shard_done(const net::Message& message) {
  ShardDone done;
  if (message.fields.size() != 3) return std::nullopt;
  if (!get_header(message, done.fingerprint, done.shard_id, done.epoch)) {
    return std::nullopt;
  }
  return done;
}

net::Message make_shard_ack(std::uint32_t sequence, bool revoked) {
  net::Message message = net::make_ack(sequence);
  message.set_u64("revoked", revoked ? 1 : 0);
  return message;
}

bool ack_revoked(const net::Message& reply) {
  const auto revoked = reply.get_u64("revoked");
  return revoked && *revoked != 0;
}

}  // namespace tracer::core
