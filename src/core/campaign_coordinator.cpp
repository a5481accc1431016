#include "core/campaign_coordinator.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "obs/registry.h"
#include "util/logging.h"

namespace tracer::core {

namespace {

struct FleetCounters {
  obs::Counter& leases_granted;
  obs::Counter& leases_expired;
  obs::Counter& leases_stolen;
  obs::Counter& workers_dead;
  obs::Counter& records_merged;
  obs::Counter& records_deduped;
  obs::Counter& shards_assigned;
  obs::Counter& shards_completed;
  obs::Gauge& workers_alive;

  static FleetCounters& get() {
    auto& reg = obs::Registry::global();
    static FleetCounters counters{
        reg.counter("fleet.leases.granted"),
        reg.counter("fleet.leases.expired"),
        reg.counter("fleet.leases.stolen"),
        reg.counter("fleet.workers.dead"),
        reg.counter("fleet.records.merged"),
        reg.counter("fleet.records.deduped"),
        reg.counter("fleet.shards.assigned"),
        reg.counter("fleet.shards.completed"),
        reg.gauge("fleet.workers.alive"),
    };
    return counters;
  }
};

}  // namespace

CampaignCoordinator::CampaignCoordinator(CampaignIdentity identity,
                                         std::filesystem::path journal_path,
                                         std::vector<WorkerLink> workers,
                                         CoordinatorOptions options)
    : identity_(std::move(identity)),
      journal_path_(std::move(journal_path)),
      options_(std::move(options)) {
  workers_.reserve(workers.size());
  for (auto& link : workers) {
    Worker worker;
    worker.link = std::move(link);
    workers_.push_back(std::move(worker));
  }
  options_.shard_size =
      std::clamp<std::size_t>(options_.shard_size, 1, kMaxShardTests);
  // Retransmitting slower than the lease expires would be pointless; keep
  // at least two delivery attempts inside every lease window.
  options_.assign_retry =
      std::clamp(options_.assign_retry, 0.0, options_.lease_duration / 2);
}

Seconds CampaignCoordinator::now() const {
  return (options_.clock != nullptr ? *options_.clock
                                    : util::MonotonicClock::steady())
      .now();
}

void CampaignCoordinator::begin(
    const std::vector<workload::WorkloadMode>& matrix) {
  matrix_ = matrix;
  identity_.fingerprint = CampaignIdentity::fingerprint_of(matrix_);

  // Verify before merging a single record: resuming someone else's
  // journal would dedup against rows whose indices mean different tests.
  identity_.claim(journal_path_);
  merger_ = std::make_unique<db::JournalMerger>(journal_path_);
  resumed_ = 0;
  pending_.clear();
  shards_.clear();
  stolen_at_.clear();
  for (std::uint32_t i = 0; i < matrix_.size(); ++i) {
    if (merger_->contains(i)) {
      ++resumed_;
    } else {
      pending_.push_back(i);
    }
  }
  for (auto& worker : workers_) {
    // A link that is already closed at begin() is dead state, not a death
    // event: workers_dead_ (and fleet.workers.dead) count only deaths this
    // coordinator observes, via mark_dead().
    worker.state = worker.link.comm->peer_closed() ? WorkerState::kDead
                                                   : WorkerState::kIdle;
    worker.shard.reset();
  }
  publish_alive_gauge();
  started_ = now();
  begun_ = true;
  TRACER_LOG(kInfo) << "fleet: campaign '" << identity_.id << "' ("
                    << matrix_.size() << " tests, " << resumed_
                    << " already journaled) across " << workers_.size()
                    << " workers";
}

bool CampaignCoordinator::step() {
  bool activity = false;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (workers_[i].state == WorkerState::kDead) continue;
    activity = drain_worker(i) || activity;
    if (workers_[i].link.comm->peer_closed()) {
      mark_dead(i);
      activity = true;
    }
  }
  activity = expire_leases() || activity;
  activity = retransmit_unacked() || activity;
  activity = assign_pending() || activity;
  return activity;
}

bool CampaignCoordinator::finished() const {
  // resumed_ counts distinct journaled indices found at begin();
  // merger_->merged() counts distinct new indices merged this run (every
  // merge is bounds-checked and deduped, so the sum is exact).
  return begun_ && resumed_ + merger_->merged() >= matrix_.size();
}

FleetReport CampaignCoordinator::report() const {
  FleetReport report;
  report.complete = finished();
  report.total = matrix_.size();
  report.resumed = resumed_;
  report.merged = merger_ ? merger_->merged() : 0;
  report.deduped = merger_ ? merger_->deduped() : 0;
  report.leases_granted = leases_granted_;
  report.leases_expired = leases_expired_;
  report.leases_stolen = leases_stolen_;
  report.workers_dead = workers_dead_;
  report.elapsed = now() - started_;
  report.max_steal_recovery = max_steal_recovery_;
  report.stranded =
      !report.complete &&
      std::all_of(workers_.begin(), workers_.end(), [](const Worker& w) {
        return w.state == WorkerState::kDead;
      });
  return report;
}

FleetReport CampaignCoordinator::run(
    const std::vector<workload::WorkloadMode>& matrix) {
  begin(matrix);
  while (!finished() && !cancel_.cancelled()) {
    if (options_.stop_after_merged != 0 &&
        merger_->merged() >= options_.stop_after_merged) {
      TRACER_LOG(kWarn) << "fleet: stop_after_merged hook fired at "
                        << merger_->merged() << " records";
      break;
    }
    const bool activity = step();
    if (report().stranded) {
      TRACER_LOG(kError) << "fleet: every worker is dead with "
                         << pending_.size() << " tests pending; giving up";
      break;
    }
    if (!activity) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.idle_sleep));
    }
  }
  return report();
}

bool CampaignCoordinator::drain_worker(std::size_t index) {
  bool any = false;
  while (auto message = workers_[index].link.comm->poll()) {
    handle_message(index, *message);
    any = true;
  }
  return any;
}

void CampaignCoordinator::handle_message(std::size_t index,
                                         const net::Message& message) {
  switch (message.type) {
    case net::MessageType::kShardRecord:
      handle_record(index, message);
      break;
    case net::MessageType::kShardDone:
      handle_done(index, message);
      break;
    case net::MessageType::kLeaseRenew:
      handle_renew(index, message);
      break;
    case net::MessageType::kAck: {
      // An assignment ack: delivery confirmed, stop retransmitting, and
      // start the lease clock from receipt rather than from send.
      Worker& worker = workers_[index];
      if (worker.shard) {
        const auto it = shards_.find(*worker.shard);
        if (it != shards_.end() && it->second.worker == index &&
            it->second.assign_sequence == message.sequence &&
            !it->second.acked) {
          it->second.acked = true;
          renew_lease(it->second);
        }
      }
      break;
    }
    case net::MessageType::kError:
      break;  // worker decode complaints: the retransmit/expiry path covers
    default:
      TRACER_LOG(kWarn) << "fleet: unexpected " << net::to_string(message.type)
                        << " from worker " << workers_[index].link.name;
      break;
  }
}

bool CampaignCoordinator::lease_current(std::size_t index,
                                        std::uint32_t shard_id,
                                        std::uint32_t epoch) const {
  const auto it = shards_.find(shard_id);
  return it != shards_.end() && it->second.epoch == epoch &&
         it->second.worker == index;
}

void CampaignCoordinator::renew_lease(Shard& shard) {
  shard.deadline = now() + options_.lease_duration;
}

bool CampaignCoordinator::merge_record(const ShardRecord& record) {
  auto& counters = FleetCounters::get();
  db::TestRecord row = record.record;
  row.test_id = record.index;
  if (!merger_->append_unique(row)) {
    counters.records_deduped.increment();
    return false;
  }
  counters.records_merged.increment();
  const auto stolen = stolen_at_.find(record.index);
  if (stolen != stolen_at_.end()) {
    max_steal_recovery_ =
        std::max(max_steal_recovery_, now() - stolen->second);
    stolen_at_.erase(stolen);
  }
  return true;
}

void CampaignCoordinator::handle_record(std::size_t index,
                                        const net::Message& message) {
  Worker& worker = workers_[index];
  const auto record = decode_shard_record(message);
  if (!record || record->fingerprint != identity_.fingerprint ||
      record->index >= matrix_.size()) {
    worker.link.comm->reply(message,
                            net::make_error(message.sequence, "bad record"));
    return;
  }
  merge_record(*record);
  const bool current = lease_current(index, record->shard_id, record->epoch);
  if (current) {
    Shard& shard = shards_[record->shard_id];
    shard.acked = true;  // a record under this lease proves delivery
    renew_lease(shard);
    // Progress shrinks the shard's outstanding set so a later steal only
    // re-issues what is actually missing.
    std::erase_if(shard.tests, [&](const FleetTest& t) {
      return t.index == record->index;
    });
  } else if (worker.state == WorkerState::kSuspect) {
    // A suspect worker just spoke: it is reachable, and the revoked ack we
    // are about to send makes it abandon the stale shard. Back to the pool.
    worker.state = WorkerState::kIdle;
    worker.shard.reset();
  }
  worker.link.comm->reply(message,
                          make_shard_ack(message.sequence, !current));
}

void CampaignCoordinator::handle_done(std::size_t index,
                                      const net::Message& message) {
  Worker& worker = workers_[index];
  const auto done = decode_shard_done(message);
  if (!done || done->fingerprint != identity_.fingerprint) {
    worker.link.comm->reply(message,
                            net::make_error(message.sequence, "bad done"));
    return;
  }
  const bool current = lease_current(index, done->shard_id, done->epoch);
  if (current) {
    Shard& shard = shards_[done->shard_id];
    // Defensive: anything the worker never got acked goes back to pending
    // rather than silently vanishing (should be empty on a clean done).
    for (const FleetTest& test : shard.tests) {
      if (!merger_->contains(test.index)) pending_.push_back(test.index);
    }
    shards_.erase(done->shard_id);
    FleetCounters::get().shards_completed.increment();
    worker.state = WorkerState::kIdle;
    worker.shard.reset();
  } else if (worker.state == WorkerState::kSuspect) {
    // Stale DONE from a worker whose shard was stolen: it is alive and
    // about to rejoin the pool. A stale DONE while the worker is kBusy on
    // a NEWER shard (late wire duplicate) must NOT free it — that would
    // double-assign.
    worker.state = WorkerState::kIdle;
    worker.shard.reset();
  }
  worker.link.comm->reply(message,
                          make_shard_ack(message.sequence, !current));
}

void CampaignCoordinator::handle_renew(std::size_t index,
                                       const net::Message& message) {
  const auto renew = decode_lease_renew(message);
  if (!renew || renew->fingerprint != identity_.fingerprint) return;
  if (lease_current(index, renew->shard_id, renew->epoch)) {
    Shard& shard = shards_[renew->shard_id];
    shard.acked = true;  // a keepalive under this lease proves delivery
    renew_lease(shard);
  }
  // Keepalives are OOB (sequence 0): no reply.
}

bool CampaignCoordinator::expire_leases() {
  const Seconds t = now();
  bool any = false;
  std::vector<std::uint32_t> lapsed;
  for (const auto& [id, shard] : shards_) {
    if (t >= shard.deadline) lapsed.push_back(id);
  }
  for (const std::uint32_t id : lapsed) {
    auto& counters = FleetCounters::get();
    counters.leases_expired.increment();
    ++leases_expired_;
    const std::size_t holder = shards_[id].worker;
    TRACER_LOG(kWarn) << "fleet: lease on shard " << id << " (worker "
                      << workers_[holder].link.name
                      << ") expired, stealing";
    steal_shard(id, /*expired=*/true);
    // The holder may be stalled, partitioned, or just slow — alive-ness
    // unknown. No new work until it speaks again (its next DONE or record
    // gets a revoked ack, after which it rejoins via handle_done or idles)
    // or a full lease_duration of silence passes (assign_pending's
    // anti-livelock re-admission).
    if (workers_[holder].state == WorkerState::kBusy) {
      workers_[holder].state = WorkerState::kSuspect;
      workers_[holder].suspect_since = t;
    }
    workers_[holder].shard.reset();
    any = true;
  }
  return any;
}

bool CampaignCoordinator::retransmit_unacked() {
  const Seconds t = now();
  bool any = false;
  for (auto& [id, shard] : shards_) {
    if (shard.acked || t < shard.next_retransmit) continue;
    Worker& worker = workers_[shard.worker];
    if (worker.state == WorkerState::kDead || worker.link.comm->peer_closed()) {
      continue;  // step()'s next drain pass will mark_dead and steal
    }
    // Same shard id and epoch: if the original DID arrive (or a duplicate
    // already got through), the worker's duplicate-assignment guard just
    // acks it again. Records can only have shrunk `tests` after an ack, so
    // rebuilding the assignment from the shard is exact.
    ShardAssignment assign;
    assign.fingerprint = identity_.fingerprint;
    assign.shard_id = shard.id;
    assign.epoch = shard.epoch;
    assign.lease = options_.lease_duration;
    assign.tests = shard.tests;
    shard.assign_sequence = worker.link.comm->send(encode_shard_assign(assign));
    shard.next_retransmit = t + options_.assign_retry;
    any = true;
  }
  return any;
}

void CampaignCoordinator::mark_dead(std::size_t index) {
  Worker& worker = workers_[index];
  if (worker.state == WorkerState::kDead) return;
  TRACER_LOG(kWarn) << "fleet: worker " << worker.link.name
                    << " hung up, marking dead";
  const auto held = worker.shard;
  worker.state = WorkerState::kDead;
  worker.shard.reset();
  ++workers_dead_;
  FleetCounters::get().workers_dead.increment();
  publish_alive_gauge();
  if (held && shards_.count(*held) != 0) {
    steal_shard(*held, /*expired=*/false);
  }
}

void CampaignCoordinator::steal_shard(std::uint32_t shard_id, bool expired) {
  const auto it = shards_.find(shard_id);
  if (it == shards_.end()) return;
  const Seconds t = now();
  std::size_t reclaimed = 0;
  for (const FleetTest& test : it->second.tests) {
    if (merger_->contains(test.index)) continue;
    pending_.push_back(test.index);
    stolen_at_.emplace(test.index, t);  // keeps the FIRST steal time
    ++reclaimed;
  }
  shards_.erase(it);
  ++leases_stolen_;
  FleetCounters::get().leases_stolen.increment();
  TRACER_LOG(kInfo) << "fleet: stole shard " << shard_id << " ("
                    << reclaimed << " tests re-queued, cause="
                    << (expired ? "lease-expiry" : "hang-up") << ")";
}

bool CampaignCoordinator::assign_pending() {
  bool any = false;
  const Seconds t = now();
  for (std::size_t i = 0; i < workers_.size() && !pending_.empty(); ++i) {
    Worker& worker = workers_[i];
    // A suspect that stayed silent a full lease_duration becomes eligible
    // again: either it is dead (peer_closed will surface) or it is merely
    // slow, and the worst a wasted re-assignment costs is one more lease
    // expiry. Without this, a fleet of all-suspects would livelock.
    const bool re_admitted =
        worker.state == WorkerState::kSuspect &&
        t - worker.suspect_since >= options_.lease_duration;
    if (worker.state != WorkerState::kIdle && !re_admitted) continue;
    if (worker.link.comm->peer_closed()) {
      mark_dead(i);
      continue;
    }
    ShardAssignment assign;
    assign.fingerprint = identity_.fingerprint;
    assign.shard_id = next_shard_id_++;
    assign.epoch = next_epoch_++;
    assign.lease = options_.lease_duration;
    while (!pending_.empty() && assign.tests.size() < options_.shard_size) {
      const std::uint32_t index = pending_.front();
      pending_.pop_front();
      if (merger_->contains(index)) continue;  // merged while queued
      assign.tests.push_back(FleetTest{index, matrix_[index]});
    }
    if (assign.tests.empty()) break;
    Shard shard;
    shard.id = assign.shard_id;
    shard.epoch = assign.epoch;
    shard.worker = i;
    shard.tests = assign.tests;
    shard.deadline = t + options_.lease_duration;
    // Fire-and-forget with retransmission: until the worker acks (or sends
    // a record/renew under this lease), retransmit_unacked() re-sends the
    // identical assignment every assign_retry. The lease expiry remains the
    // backstop for a worker that never answers at all.
    shard.assign_sequence = worker.link.comm->send(encode_shard_assign(assign));
    shard.next_retransmit = t + options_.assign_retry;
    shards_.emplace(shard.id, std::move(shard));
    worker.state = WorkerState::kBusy;
    worker.shard = assign.shard_id;
    auto& counters = FleetCounters::get();
    counters.leases_granted.increment();
    counters.shards_assigned.increment();
    ++leases_granted_;
    any = true;
  }
  return any;
}

void CampaignCoordinator::publish_alive_gauge() {
  const auto alive =
      std::count_if(workers_.begin(), workers_.end(), [](const Worker& w) {
        return w.state != WorkerState::kDead;
      });
  FleetCounters::get().workers_alive.set(static_cast<double>(alive));
}

void CampaignCoordinator::stop_workers() {
  for (auto& worker : workers_) {
    if (worker.state == WorkerState::kDead) continue;
    net::Message stop;
    stop.type = net::MessageType::kStopTest;
    worker.link.comm->send(std::move(stop));
    worker.link.comm->close();
  }
}

}  // namespace tracer::core
