// Campaign orchestration — the §VI evaluation at production scale. The
// paper's 125-mode x 10-load campaign is 1250 experiments; at that scale a
// single throwing test must not discard hours of completed work, and a
// killed process must be able to pick up where it left off. CampaignRunner
// wraps EvaluationHost (or any test executor) with:
//
//   * per-test failure isolation — a throwing test becomes a failed
//     TestOutcome; every other slot still completes;
//   * bounded retry with exponential backoff for transient errors;
//   * cooperative cancellation — a CancelToken threaded through the
//     thread pool stops the campaign cleanly mid-sweep (safe to trip from
//     a SIGINT handler);
//   * checkpoint/resume — completed records stream to an append-only CSV
//     journal as they finish, keyed by matrix index (test_id = index) under
//     CampaignIdentity{device, fingerprint} as in CampaignCoordinator, and a
//     restarted campaign (of either driver) skips every index on record;
//   * observability — a progress callback with completed/failed/retried/
//     skipped counts and a wall-clock ETA;
//   * deterministic fault injection, so the retry and resume paths are
//     testable without real failures.
#pragma once

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign_worker.h"
#include "core/evaluation_host.h"
#include "db/journal.h"
#include "obs/registry.h"
#include "util/backoff.h"
#include "util/cancel_token.h"
#include "util/sync.h"

namespace tracer::core {

/// Terminal state of one campaign test.
enum class TestStatus {
  kCompleted,  ///< ran (possibly after retries) and produced a record
  kSkipped,    ///< already in the journal; not re-run
  kFailed,     ///< exhausted its attempts; error holds the last failure
  kCancelled,  ///< the campaign was cancelled before this test ran
};

/// Per-test outcome; CampaignReport keeps slots in input order.
struct TestOutcome {
  TestStatus status = TestStatus::kCancelled;
  db::TestRecord record;  ///< valid when completed or skipped
  std::string error;      ///< last failure message when failed
  int attempts = 0;       ///< executor invocations (0 when skipped/cancelled)

  bool ok() const {
    return status == TestStatus::kCompleted || status == TestStatus::kSkipped;
  }
};

/// Monotonic counters handed to CampaignOptions::on_progress after every
/// state change. Callbacks are serialised (never concurrent).
struct CampaignProgress {
  std::size_t total = 0;
  std::size_t completed = 0;  ///< ran to success this process
  std::size_t skipped = 0;    ///< resumed from the journal
  std::size_t failed = 0;
  std::size_t retries = 0;    ///< extra attempts across all tests
  Seconds elapsed = 0.0;
  Seconds eta = 0.0;  ///< remaining-time estimate; 0 until measurable
  /// Point-in-time snapshot of the process-global obs registry, taken just
  /// before each callback: replay/peak-cache/power counters alongside the
  /// campaign's own counts, so dashboards need only one subscription.
  obs::Snapshot metrics;

  std::size_t processed() const { return completed + skipped + failed; }
};

struct CampaignReport {
  std::vector<TestOutcome> outcomes;  ///< input order
  std::size_t retries = 0;
  Seconds elapsed = 0.0;

  std::size_t count(TestStatus status) const;
  std::size_t completed() const { return count(TestStatus::kCompleted); }
  std::size_t skipped() const { return count(TestStatus::kSkipped); }
  std::size_t failed() const { return count(TestStatus::kFailed); }
  std::size_t cancelled() const { return count(TestStatus::kCancelled); }
  bool all_ok() const;  ///< every slot completed or skipped
};

struct CampaignOptions {
  /// Append-only CSV journal path; empty disables checkpoint/resume.
  std::filesystem::path journal_path;
  /// Extra attempts per test after the first failure (0 = fail fast).
  int max_retries = 2;
  /// Wall-clock backoff before the first retry; doubles per attempt, is
  /// capped at retry_backoff_cap, and is spread by +-retry_jitter so a
  /// fleet of workers retrying the same dead dependency doesn't stampede
  /// it in lockstep. The sleep is cancellation-aware, so Ctrl-C is never
  /// stuck behind it. This is the same util::Backoff policy the net layer
  /// uses between RPC attempts.
  Seconds retry_backoff = 0.05;
  Seconds retry_backoff_cap = 5.0;
  double retry_jitter = 0.1;  ///< fractional spread in [0, 1)
  /// Worker threads (0 = hardware concurrency). Executor-backed runners
  /// whose executor is not thread-safe should pass 1.
  std::size_t threads = 0;
  /// Progress stream; called serially (under the runner's progress lock)
  /// after each completion/failure/retry/skip. Keep it light and do not
  /// call back into the runner from it.
  std::function<void(const CampaignProgress&)> on_progress;
  /// Deterministic fault injection: return true to fail `attempt`
  /// (0-based) of `mode` before it reaches the executor.
  std::function<bool(const workload::WorkloadMode&, int attempt)> fail_test;
  /// Called after attempt `attempt` (0-based) of `mode` failed with
  /// `error`, before the backoff sleep. Return false to stop retrying this
  /// test (it fails immediately); return true to continue. This is where a
  /// distributed campaign re-pairs a dead link: reconnect the remote
  /// client's endpoint here and the next attempt runs over the new
  /// connection, resuming from the journal checkpoint if the process dies
  /// instead (docs/RESILIENCE.md).
  std::function<bool(const workload::WorkloadMode&, int attempt,
                     const std::string& error)>
      on_attempt_failure;
};

class CampaignRunner {
 public:
  /// Campaign over `host` (must outlive the runner): each test is
  /// host.run_test(mode); its record lands in the journal, when one is set,
  /// and in the report.
  explicit CampaignRunner(EvaluationHost& host, CampaignOptions options = {});

  /// Campaign over a custom executor (remote workload generators, tests).
  /// `device` names the system under test; it is the campaign id the
  /// journal is bound to (CampaignIdentity::claim).
  CampaignRunner(TestExecutor executor, std::string device,
                 CampaignOptions options = {});

  /// Run every mode, honouring journal resume and the cancel token.
  /// Never throws for per-test failures; outcomes are in input order.
  /// Throws std::runtime_error, before running anything, when the journal
  /// belongs to a different campaign (CampaignIdentity::claim).
  CampaignReport run(const std::vector<workload::WorkloadMode>& modes);

  /// Cancellation latch. request_cancel() is safe from other threads and
  /// from signal handlers; the campaign stops after in-flight tests drain.
  util::CancelToken& cancel_token() { return cancel_; }

 private:
  TestOutcome run_one(const workload::WorkloadMode& mode, std::size_t index);
  void bump_progress(const std::function<void(CampaignProgress&)>& update);

  TestExecutor executor_;
  std::string device_;
  CampaignOptions options_;
  util::CancelToken cancel_;
  std::unique_ptr<db::JournalMerger> journal_;  ///< thread-safe appends

  util::Mutex progress_mutex_;  ///< serialises progress + on_progress calls
  CampaignProgress progress_ TRACER_GUARDED_BY(progress_mutex_);
  std::chrono::steady_clock::time_point started_;  ///< written before the sweep fans out
};

}  // namespace tracer::core
