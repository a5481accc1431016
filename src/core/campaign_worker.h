// Fleet campaign worker (docs/FLEET.md): one member of the worker pool a
// core::CampaignCoordinator shards a campaign across. A worker is a
// message-driven service, like core::WorkloadGeneratorService: it waits for
// SHARD_ASSIGN, runs the shard's tests through its executor one at a time,
// and streams each completed test back as an idempotent SHARD_RECORD RPC
// (request_id-stamped, retried with backoff) so a lossy link costs
// retransmits, never records. Between completions it keeps its lease alive
// with LEASE_RENEW keepalives.
//
// Robustness contract: the worker NEVER needs to be told the coordinator
// died. If record acks stop coming it retries, and when retries exhaust it
// abandons the shard and goes back to waiting — the coordinator's lease
// machinery (or its restarted successor) re-issues the work. If an ack
// arrives with revoked=1, the shard was stolen while this worker was
// partitioned away: it abandons immediately instead of burning time on
// tests whose records would all be deduplicated on arrival.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>

#include "core/fleet_wire.h"
#include "net/communicator.h"
#include "util/backoff.h"

namespace tracer::core {

/// Runs one campaign test, returning its record; throw to report failure.
/// CampaignRunner and CampaignWorkerService both take one.
using TestExecutor =
    std::function<db::TestRecord(const workload::WorkloadMode&)>;

struct WorkerOptions {
  /// Lease keepalive cadence while executing a shard (sent between tests;
  /// every SHARD_RECORD ack also renews coordinator-side).
  Seconds renew_interval = 0.2;
  /// Per-attempt wait for a SHARD_RECORD / SHARD_DONE ack.
  Seconds ack_timeout = 0.5;
  /// Transmissions per record RPC. Sized to ride out a coordinator
  /// kill/restart window, not just frame loss.
  int ack_attempts = 200;
  util::Backoff::Params backoff{.base = 0.002, .cap = 0.05, .jitter = 0.2};
  /// serve() returns after this long with no inbound frames and no shard.
  Seconds idle_timeout = 300.0;
  /// Chaos hook: called before each test with the total number of tests
  /// this worker has executed; return true to die on the spot — serve()
  /// returns immediately, mid-shard, without a word to the coordinator
  /// (its endpoint hang-up and lease expiry are the only death notices,
  /// exactly like a SIGKILLed process).
  std::function<bool(std::uint64_t executed)> kill_switch;
};

/// Per-worker tallies, for tests and the fleet_eval driver.
struct WorkerStats {
  std::uint64_t shards_accepted = 0;
  std::uint64_t tests_executed = 0;
  std::uint64_t records_acked = 0;
  std::uint64_t shards_completed = 0;
  std::uint64_t shards_abandoned = 0;  ///< revoked acks or exhausted retries
  bool killed = false;                 ///< kill_switch fired
};

class CampaignWorkerService {
 public:
  /// A throwing executor makes the worker abandon the shard; the
  /// coordinator re-issues the rest.
  explicit CampaignWorkerService(TestExecutor executor,
                                 WorkerOptions options = {});

  /// Serve until STOP_TEST, peer hang-up, idle timeout, or kill_switch.
  /// Run this on the worker's thread; `comm` is thread-confined to it.
  void serve(net::Communicator& comm);

  const WorkerStats& stats() const { return stats_; }

 private:
  /// Execute one assigned shard. Returns false when serve() must exit
  /// (killed or link gone).
  bool run_shard(net::Communicator& comm, const ShardAssignment& assign);
  /// Idempotent RPC to the coordinator; nullopt = gave up (abandon shard).
  std::optional<net::Message> call_coordinator(net::Communicator& comm,
                                               net::Message message);

  TestExecutor executor_;
  WorkerOptions options_;
  WorkerStats stats_;
  /// Last (shard_id, epoch) handled: a duplicated SHARD_ASSIGN frame
  /// (lossy link) is acked but not re-run.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> last_shard_;
};

}  // namespace tracer::core
