// Exact queueing oracles for the FIFO disk models.
//
// One device, fed open-loop Poisson arrivals of 4 KiB random reads at a
// utilisation of about 0.3, is an M/G/1 queue whenever every service time
// is i.i.d. and independent of the arrivals. The Pollaczek-Khinchine
// formula then gives the mean response time exactly:
//
//   E[R] = E[S] + lambda E[S^2] / (2 (1 - rho)),   rho = lambda E[S],
//
// and the fraction of time the device is busy is rho. The references below
// compute E[S] and E[S^2] from the device parameters alone and draw the
// arrivals and addresses with the standard library, so they share no code
// with the models, the simulator's RNG or the replay path.
//
//   * HDD: every read lands at a random aligned sector inside one cylinder
//     and never at the previous request's end sector, so each service is
//     command_overhead + settle_time + U(0, 60/rpm) + bytes / media_rate:
//     no seek, no sequential hit, one uniform rotation.
//   * SSD: one channel and random reads give a constant service
//     (M/D/1): command_overhead + bytes / read_rate * random_read_penalty.
//
// Tolerance: kReplications independent seeds of kRequests requests each.
// Waiting times inside one run are correlated, so the standard error comes
// from the spread of the per-run means, and a check passes when the mean of
// those means is within kStandardErrors standard errors of the reference.
// These three constants are stated here and are not tuned to the models.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/simulator.h"
#include "storage/hdd_model.h"
#include "storage/ssd_model.h"

namespace tracer::storage {
namespace {

constexpr std::size_t kReplications = 20;
constexpr std::size_t kRequests = 20000;
constexpr double kStandardErrors = 4.0;
constexpr double kTargetUtilisation = 0.3;
constexpr Bytes kRequestBytes = 4096;
constexpr Sector kRequestSectors = kRequestBytes / kSectorSize;

/// Moments of one service time.
struct ServiceMoments {
  double mean = 0.0;    ///< E[S]
  double second = 0.0;  ///< E[S^2]
};

/// Pollaczek-Khinchine mean response time at arrival rate `lambda`.
double pk_response(const ServiceMoments& s, double lambda) {
  const double rho = lambda * s.mean;
  return s.mean + lambda * s.second / (2.0 * (1.0 - rho));
}

/// What one replication measured.
struct RunStats {
  double mean_response = 0.0;
  Seconds start = 0.0;  ///< the window opens; the first arrival follows
  Seconds end = 0.0;    ///< last completion
  /// Service times recovered from the completions: in a FIFO single
  /// server a request starts when it arrives or when its predecessor
  /// finishes, whichever is later.
  double min_service = 0.0;
  double max_service = 0.0;
  double service_sum = 0.0;
};

/// Open-loop Poisson source of 4 KiB reads at aligned sectors drawn
/// uniformly from [first, first + units * kRequestSectors). prime() serves
/// one unmeasured request, so that a disk head already sits in the region;
/// measure() then issues `kRequests` measured ones.
class PoissonReads final : public sim::EventTarget, public IoSink {
 public:
  PoissonReads(sim::Simulator& sim, BlockDevice& device, double rate,
               Sector first, std::uint64_t units, std::uint64_t seed)
      : sim_(sim), device_(device), gaps_(rate), units_(0, units - 1),
        first_(first), rng_(seed) {}

  void prime() {
    submit(/*measured=*/false);
    sim_.run();
  }

  RunStats measure() {
    stats_.start = sim_.now();
    sim_.schedule_in(gaps_(rng_), *this, 0);
    sim_.run();
    stats_.mean_response = response_sum_ / static_cast<double>(completed_);
    return stats_;
  }

  std::size_t completed() const { return completed_; }

 private:
  void submit(bool measured) {
    Sector sector = 0;
    do {
      sector = first_ + units_(rng_) * kRequestSectors;
    } while (sector == previous_end_);  // never a sequential hit
    previous_end_ = sector + kRequestSectors;
    device_.submit(IoRequest{issued_++, sector, kRequestBytes, OpType::kRead},
                   CompletionCallback(*this, measured ? 1 : 0));
  }

  void on_event(std::uint64_t) override {
    submit(/*measured=*/true);
    if (++arrivals_ < kRequests) sim_.schedule_in(gaps_(rng_), *this, 0);
  }

  void on_complete(std::uint64_t measured,
                   const IoCompletion& completion) override {
    if (measured == 0) {
      previous_finish_ = completion.finish_time;
      return;
    }
    const double service =
        completion.finish_time -
        std::max(completion.submit_time, previous_finish_);
    if (completed_ == 0) {
      stats_.min_service = stats_.max_service = service;
    }
    stats_.min_service = std::min(stats_.min_service, service);
    stats_.max_service = std::max(stats_.max_service, service);
    stats_.service_sum += service;
    response_sum_ += completion.latency();
    ++completed_;
    previous_finish_ = completion.finish_time;
    stats_.end = completion.finish_time;
  }

  sim::Simulator& sim_;
  BlockDevice& device_;
  std::exponential_distribution<double> gaps_;
  std::uniform_int_distribution<std::uint64_t> units_;
  Sector first_;
  std::mt19937_64 rng_;
  std::uint64_t issued_ = 0;
  std::size_t arrivals_ = 0;
  std::size_t completed_ = 0;
  Sector previous_end_ = ~Sector{0};
  Seconds previous_finish_ = 0.0;
  double response_sum_ = 0.0;
  RunStats stats_;
};

/// Mean and standard error of per-replication values.
struct Estimate {
  double mean = 0.0;
  double standard_error = 0.0;
};

Estimate estimate(const std::vector<double>& values) {
  const auto n = static_cast<double>(values.size());
  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / n;
  double squares = 0.0;
  for (double v : values) squares += (v - mean) * (v - mean);
  return {mean, std::sqrt(squares / (n - 1.0) / n)};
}

void expect_within(const char* what, const std::vector<double>& values,
                   double reference) {
  const Estimate e = estimate(values);
  EXPECT_LE(std::abs(e.mean - reference), kStandardErrors * e.standard_error)
      << what << ": measured " << e.mean << " +- " << e.standard_error
      << " (1 SE) against reference " << reference << " ("
      << (e.mean - reference) / e.standard_error << " SE)";
}

/// E[S] and E[S^2] of a read of `bytes` inside cylinder `cylinder`, with
/// no seek (settle only) and a uniform rotational delay.
ServiceMoments hdd_moments(const HddParams& p, std::uint64_t cylinder,
                           Bytes bytes) {
  const double fraction = static_cast<double>(cylinder) /
                          static_cast<double>(p.cylinders - 1);
  const double media_bytes_per_s =
      (p.outer_rate_mbps + (p.inner_rate_mbps - p.outer_rate_mbps) * fraction) *
      1.0e6;
  // S = a + U with U ~ Uniform(0, T).
  const double a = p.command_overhead + p.settle_time +
                   static_cast<double>(bytes) / media_bytes_per_s;
  const double t = 60.0 / p.rpm;
  return {a + t / 2.0, a * a + a * t + t * t / 3.0};
}

TEST(QueueingOracle, FifoHddMatchesPollaczekKhinchine) {
  const HddParams reference;  // the testbed drive
  const HddParams model = reference;
  const std::uint64_t cylinder = reference.cylinders / 2;
  const std::uint64_t sectors_per_cylinder =
      reference.capacity / kSectorSize / reference.cylinders;
  const std::uint64_t units = sectors_per_cylinder / kRequestSectors;
  ASSERT_GT(units, 100u);

  const ServiceMoments s = hdd_moments(reference, cylinder, kRequestBytes);
  const double lambda = kTargetUtilisation / s.mean;

  std::vector<double> responses;
  std::vector<double> utilisations;
  for (std::size_t r = 0; r < kReplications; ++r) {
    sim::Simulator sim;
    HddModel hdd(sim, model, 1000 + r);
    PoissonReads source(sim, hdd, lambda, cylinder * sectors_per_cylinder,
                        units, 2000 + r);
    source.prime();
    const Seconds busy_before = hdd.busy_time();
    const RunStats run = source.measure();
    ASSERT_EQ(source.completed(), kRequests);
    EXPECT_EQ(hdd.sequential_hits(), 0u);
    responses.push_back(run.mean_response);
    utilisations.push_back((hdd.busy_time() - busy_before) /
                           (run.end - run.start));
  }
  expect_within("mean response (s)", responses, pk_response(s, lambda));
  expect_within("utilisation", utilisations, lambda * s.mean);
}

TEST(QueueingOracle, SingleChannelSsdMatchesMD1) {
  SsdParams reference;
  reference.channels = 1;
  const SsdParams model = reference;
  // Constant service: M/D/1 is P-K with E[S^2] = E[S]^2.
  const double service =
      reference.command_overhead +
      static_cast<double>(kRequestBytes) / (reference.read_rate_mbps * 1.0e6) *
          reference.random_read_penalty;
  const ServiceMoments s{service, service * service};
  const double lambda = kTargetUtilisation / s.mean;
  const std::uint64_t units = reference.capacity / kRequestBytes;

  std::vector<double> responses;
  std::vector<double> utilisations;
  for (std::size_t r = 0; r < kReplications; ++r) {
    sim::Simulator sim;
    SsdModel ssd(sim, model, 3000 + r);
    PoissonReads source(sim, ssd, lambda, 0, units, 4000 + r);
    source.prime();
    const RunStats run = source.measure();
    ASSERT_EQ(source.completed(), kRequests);
    responses.push_back(run.mean_response);
    utilisations.push_back(run.service_sum / (run.end - run.start));
    // Deterministic service, up to the rounding of the event times.
    EXPECT_NEAR(run.min_service, service, 1e-12);
    EXPECT_NEAR(run.max_service, service, 1e-12);
  }
  expect_within("mean response (s)", responses, pk_response(s, lambda));
  expect_within("utilisation", utilisations, lambda * s.mean);
}

}  // namespace
}  // namespace tracer::storage
