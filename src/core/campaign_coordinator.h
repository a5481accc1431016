// Fleet-scale campaign coordinator (docs/FLEET.md): shards a campaign's
// test matrix across N CampaignWorkerService processes under time-bounded
// leases, steals and re-issues any shard whose lease lapses, and merges the
// workers' streamed records into one crash-safe, deduplicated journal.
//
// The robustness model, end to end:
//
//   * every test has a stable identity — its index in the campaign matrix,
//     fingerprinted by CampaignIdentity — which keys journal dedup, so a
//     re-executed stolen shard or a late retransmit can never produce a
//     duplicate row (db::JournalMerger);
//   * shards are leases, not gifts: a worker must keep renewing (records
//     and LEASE_RENEW keepalives both renew) or the coordinator reclaims
//     the shard's unfinished tests and hands them to another worker. Lease
//     arithmetic runs on an injectable util::MonotonicClock — wall-clock
//     jumps cannot mass-expire a fleet;
//   * worker death is detected two ways: hang-up (endpoint closed — fast)
//     and lease expiry (stall or partition — bounded by lease_duration).
//     Either way the response is the same steal;
//   * the coordinator itself is expendable: every merged record is already
//     durable in the checksummed journal, so a killed coordinator restarts,
//     re-opens the journal (truncate-to-last-valid recovery), verifies the
//     campaign identity, and re-issues exactly the missing tests — zero
//     lost, zero duplicated.
//
// Concurrency: the coordinator is THREAD-CONFINED, like the Communicators
// it drives — one thread calls run() (or begin()/step()), and that thread
// owns every worker link. Workers run on their own threads/processes and
// talk only through frames. cancel_token() is the one cross-thread entry
// point (an atomic latch, safe from signal handlers).
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fleet_wire.h"
#include "db/journal.h"
#include "net/communicator.h"
#include "util/cancel_token.h"
#include "util/clock.h"

namespace tracer::core {

struct CoordinatorOptions {
  /// How long a shard may go without any sign of life from its holder
  /// before its unfinished tests are stolen.
  Seconds lease_duration = 2.0;
  /// Tests per shard (capped at kMaxShardTests).
  std::size_t shard_size = 64;
  /// Control-loop sleep when an iteration did no work.
  Seconds idle_sleep = 0.0002;
  /// Retransmit interval for an un-acked SHARD_ASSIGN. Assignment is
  /// fire-and-forget, so a dropped frame would otherwise cost a full
  /// lease_duration (expiry + steal) plus a suspect-quarantine before the
  /// work moves again; re-sending the identical assignment (same shard id
  /// and epoch — the worker's duplicate guard makes re-delivery idempotent)
  /// keeps loss on the fast path. Should be well under lease_duration.
  Seconds assign_retry = 0.5;
  /// Monotonic time source for lease arithmetic. nullptr = the process
  /// steady clock; tests inject a util::ManualClock.
  util::MonotonicClock* clock = nullptr;
  /// Chaos hook: run() returns (incomplete) once this many records merged
  /// in THIS run — the test harness's coordinator kill point. 0 = off.
  std::size_t stop_after_merged = 0;
};

/// Coordinator-run summary. Tallies are for this run only (a resumed
/// campaign starts them at zero); `resumed` counts journal rows that
/// already existed.
struct FleetReport {
  bool complete = false;  ///< every test in the matrix has a journal row
  bool stranded = false;  ///< work remained but every worker was dead
  std::size_t total = 0;
  std::size_t resumed = 0;
  std::size_t merged = 0;
  std::size_t deduped = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_expired = 0;
  std::uint64_t leases_stolen = 0;
  std::size_t workers_dead = 0;
  Seconds elapsed = 0.0;
  /// Slowest steal-to-recovery interval: from the moment a shard was
  /// stolen to the moment its last outstanding test reached the journal.
  Seconds max_steal_recovery = 0.0;
};

class CampaignCoordinator {
 public:
  /// One worker connection. The Communicator must outlive the coordinator
  /// and is driven exclusively by the coordinator's thread — which is what
  /// lets a restarted coordinator adopt a predecessor's still-live links.
  struct WorkerLink {
    std::string name;
    net::Communicator* comm = nullptr;
  };

  /// `identity.id` names the campaign; the matrix fingerprint is computed
  /// at run()/begin() time and the journal is bound to it with
  /// CampaignIdentity::claim. A resume whose identity or matrix differs
  /// from the persisted one, or a non-blank journal with no sidecar, throws
  /// std::runtime_error instead of silently mis-keying records.
  CampaignCoordinator(CampaignIdentity identity,
                      std::filesystem::path journal_path,
                      std::vector<WorkerLink> workers,
                      CoordinatorOptions options = {});

  /// Run the campaign to completion (or cancellation / stop_after_merged /
  /// all-workers-dead). Equivalent to begin() + step() loop + report().
  FleetReport run(const std::vector<workload::WorkloadMode>& matrix);

  /// Deterministic-stepping interface (tests drive this with a
  /// ManualClock): begin() loads the journal and computes the work list;
  /// each step() drains inbound frames, expires lapsed leases, and assigns
  /// pending shards, returning true when it did any of those.
  void begin(const std::vector<workload::WorkloadMode>& matrix);
  bool step();
  bool finished() const;
  FleetReport report() const;

  /// Send STOP_TEST to every live worker and close the links. Call after
  /// the final coordinator run; a coordinator that intends to be restarted
  /// must NOT call this.
  void stop_workers();

  util::CancelToken& cancel_token() { return cancel_; }
  const db::JournalMerger* journal() const { return merger_.get(); }

 private:
  enum class WorkerState {
    kIdle,     ///< live, no shard; eligible for assignment
    kBusy,     ///< holds a leased shard
    kSuspect,  ///< lease lapsed; alive-ness unknown, no new work yet
    kDead,     ///< endpoint hung up; never assigned again
  };

  struct Worker {
    WorkerLink link;
    WorkerState state = WorkerState::kIdle;
    std::optional<std::uint32_t> shard;  ///< key into shards_ when kBusy
    Seconds suspect_since = 0.0;         ///< when state became kSuspect
  };

  struct Shard {
    std::uint32_t id = 0;
    std::uint32_t epoch = 0;
    std::size_t worker = 0;  ///< index into workers_
    Seconds deadline = 0.0;  ///< monotonic lease expiry
    std::vector<FleetTest> tests;
    /// Delivery state of the SHARD_ASSIGN frame: until the worker's ack
    /// (or any record/renew under this lease) arrives, the identical
    /// assignment is re-sent every assign_retry.
    bool acked = false;
    std::uint32_t assign_sequence = 0;  ///< sequence of the last send
    Seconds next_retransmit = 0.0;
  };

  Seconds now() const;
  bool drain_worker(std::size_t index);
  void handle_message(std::size_t index, const net::Message& message);
  void handle_record(std::size_t index, const net::Message& message);
  void handle_done(std::size_t index, const net::Message& message);
  void handle_renew(std::size_t index, const net::Message& message);
  /// Merge one decoded record; returns true when it was new.
  bool merge_record(const ShardRecord& record);
  bool expire_leases();
  bool retransmit_unacked();
  bool assign_pending();
  void mark_dead(std::size_t index);
  /// Reclaim a shard's unfinished tests; `expired` selects the cause
  /// tally (lease lapse vs hang-up).
  void steal_shard(std::uint32_t shard_id, bool expired);
  void renew_lease(Shard& shard);
  /// Is (shard_id, epoch) the live lease held by worker `index`?
  bool lease_current(std::size_t index, std::uint32_t shard_id,
                     std::uint32_t epoch) const;
  void publish_alive_gauge();

  CampaignIdentity identity_;
  std::filesystem::path journal_path_;
  std::vector<Worker> workers_;
  CoordinatorOptions options_;
  util::CancelToken cancel_;

  // Campaign state, valid between begin() and the end of the run.
  std::vector<workload::WorkloadMode> matrix_;
  std::unique_ptr<db::JournalMerger> merger_;
  std::deque<std::uint32_t> pending_;  ///< unassigned, unmerged test indices
  std::map<std::uint32_t, Shard> shards_;
  std::map<std::uint32_t, Seconds> stolen_at_;  ///< index -> first steal time
  std::uint32_t next_shard_id_ = 1;
  std::uint32_t next_epoch_ = 1;
  std::size_t resumed_ = 0;
  std::uint64_t leases_granted_ = 0;
  std::uint64_t leases_expired_ = 0;
  std::uint64_t leases_stolen_ = 0;
  std::size_t workers_dead_ = 0;
  Seconds max_steal_recovery_ = 0.0;
  Seconds started_ = 0.0;
  bool begun_ = false;
};

}  // namespace tracer::core
