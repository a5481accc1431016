#include "core/campaign.h"

#include <algorithm>
#include <stdexcept>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace tracer::core {

namespace {
Seconds since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}
}  // namespace

std::size_t CampaignReport::count(TestStatus status) const {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [status](const TestOutcome& o) {
                      return o.status == status;
                    }));
}

bool CampaignReport::all_ok() const {
  return std::all_of(outcomes.begin(), outcomes.end(),
                     [](const TestOutcome& o) { return o.ok(); });
}

CampaignRunner::CampaignRunner(EvaluationHost& host, CampaignOptions options)
    : executor_([&host](const workload::WorkloadMode& mode) {
        return host.run_test(mode).record;
      }),
      device_(host.array_config().name),
      options_(std::move(options)) {}

CampaignRunner::CampaignRunner(TestExecutor executor, std::string device,
                               CampaignOptions options)
    : executor_(std::move(executor)),
      device_(std::move(device)),
      options_(std::move(options)) {
  if (!executor_) {
    throw std::invalid_argument("CampaignRunner: null executor");
  }
}

void CampaignRunner::bump_progress(
    const std::function<void(CampaignProgress&)>& update) {
  util::MutexLock lock(progress_mutex_);
  update(progress_);
  progress_.elapsed = since(started_);
  // ETA from the mean wall-clock cost of tests run in this process;
  // journal-skipped tests are free, so they don't enter the average.
  const std::size_t ran = progress_.completed + progress_.failed;
  const std::size_t remaining = progress_.total - progress_.processed();
  progress_.eta = ran > 0 ? progress_.elapsed / static_cast<double>(ran) *
                                static_cast<double>(remaining)
                          : 0.0;
  // Invoked under the progress lock so callbacks are serialised and see
  // monotonic counters; observers must not call back into the runner.
  // The registry snapshot is taken only when someone is listening.
  if (options_.on_progress) {
    progress_.metrics = obs::Registry::global().snapshot();
    options_.on_progress(progress_);
  }
}

TestOutcome CampaignRunner::run_one(const workload::WorkloadMode& mode,
                                    std::size_t index) {
  TestOutcome outcome;
  // Jitter is seeded per test so a campaign's retry schedule is
  // reproducible yet no two tests share a schedule.
  util::Backoff backoff({.base = options_.retry_backoff,
                         .multiplier = 2.0,
                         .cap = options_.retry_backoff_cap,
                         .jitter = options_.retry_jitter},
                        index);
  for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
    if (cancel_.cancelled()) break;
    ++outcome.attempts;
    try {
      if (options_.fail_test && options_.fail_test(mode, attempt)) {
        throw std::runtime_error(util::format(
            "injected fault (attempt %d of test %zu)", attempt, index));
      }
      db::TestRecord record = executor_(mode);
      record.test_id = index;
      if (journal_ && journal_->append_unique(record)) {
        static auto& checkpoints =
            obs::Registry::global().counter("campaign.checkpoint_writes");
        checkpoints.increment();
      }
      outcome.status = TestStatus::kCompleted;
      outcome.record = std::move(record);
      static auto& completed =
          obs::Registry::global().counter("campaign.completed");
      completed.increment();
      bump_progress([](CampaignProgress& p) { ++p.completed; });
      return outcome;
    } catch (const std::exception& e) {
      outcome.error = e.what();
    } catch (...) {
      outcome.error = "unknown error";
    }
    if (attempt < options_.max_retries && !cancel_.cancelled()) {
      // Give the caller a chance to repair the failure's cause (reconnect
      // a remote endpoint, restart a service) — or to declare it fatal.
      if (options_.on_attempt_failure &&
          !options_.on_attempt_failure(mode, attempt, outcome.error)) {
        break;
      }
      TRACER_LOG(kWarn) << "campaign test " << index << " @ "
                        << mode.load_proportion << " attempt " << attempt
                        << " failed (" << outcome.error << "), retrying";
      static auto& retries =
          obs::Registry::global().counter("campaign.retries");
      retries.increment();
      bump_progress([](CampaignProgress& p) { ++p.retries; });
      const Seconds delay = backoff.delay(attempt);
      if (delay > 0.0) cancel_.sleep_for(delay);
    }
  }
  if (outcome.attempts == 0) {
    // Cancelled before the first attempt: leave the default kCancelled.
    return outcome;
  }
  outcome.status = TestStatus::kFailed;
  static auto& failures =
      obs::Registry::global().counter("campaign.failures");
  failures.increment();
  TRACER_LOG(kError) << "campaign test " << index << " @ "
                     << mode.load_proportion << " failed after "
                     << outcome.attempts << " attempt(s): " << outcome.error;
  bump_progress([](CampaignProgress& p) { ++p.failed; });
  return outcome;
}

CampaignReport CampaignRunner::run(
    const std::vector<workload::WorkloadMode>& modes) {
  CampaignReport report;
  report.outcomes.assign(modes.size(), TestOutcome{});
  started_ = std::chrono::steady_clock::now();
  {
    util::MutexLock lock(progress_mutex_);
    progress_ = CampaignProgress{};
    progress_.total = modes.size();
  }

  // Resume: every matrix index the journal already holds is done. The
  // journal must belong to this campaign before any of its rows count.
  if (!options_.journal_path.empty()) {
    CampaignIdentity{device_, CampaignIdentity::fingerprint_of(modes)}.claim(
        options_.journal_path);
    journal_ = std::make_unique<db::JournalMerger>(options_.journal_path);
    for (const auto& record : journal_->loaded()) {
      if (record.test_id >= modes.size()) continue;
      TestOutcome& slot = report.outcomes[record.test_id];
      if (slot.status == TestStatus::kSkipped) continue;
      slot.status = TestStatus::kSkipped;
      slot.record = record;
      bump_progress([](CampaignProgress& p) { ++p.skipped; });
    }
    if (journal_->size() > 0) {
      TRACER_LOG(kInfo) << "campaign journal "
                        << options_.journal_path.string() << ": resuming, "
                        << journal_->size() << " completed test(s) on record";
    }
  }

  std::vector<std::size_t> pending;
  pending.reserve(modes.size());
  for (std::size_t i = 0; i < modes.size(); ++i) {
    if (report.outcomes[i].status != TestStatus::kSkipped) pending.push_back(i);
  }

  if (!pending.empty()) {
    util::ThreadPool pool(options_.threads);
    pool.parallel_for(
        pending.size(),
        [this, &pending, &modes, &report](std::size_t p) {
          const std::size_t i = pending[p];
          report.outcomes[i] = run_one(modes[i], i);
        },
        &cancel_);
  }

  {
    util::MutexLock lock(progress_mutex_);
    report.retries = progress_.retries;
  }
  report.elapsed = since(started_);
  return report;
}

}  // namespace tracer::core
