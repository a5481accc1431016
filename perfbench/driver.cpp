// TRACER end-to-end benchmark driver.
//
//   perfbench_driver --workload campaign|fleet --seed N --seconds S
//                    --trace 0|1 --workdir DIR [--quick] [--expect-digest HEX]
//
// Each run builds its inputs from --seed inside its own working directory
// (set-up, reported as setup_s), then repeats closed-loop passes of the
// workload for --seconds and checks every pass's outputs. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 splits
// the time between untraced and traced passes and reports per-layer
// metrics from the obs:: counters plus the driver's own timing of each
// layer's public functions on the workload's inputs. A line starting with
// "perfbench-info " before it carries provenance and the output digest.
// Exit status 0 means every output check held.
//
// Workloads (README.md in this directory says why each exists):
//   campaign  125 synthetic modes x 10 loads on the HDD RAID-5 testbed via
//             CampaignRunner over EvaluationHost, journal on;
//   fleet     the campaign matrix through CampaignCoordinator and
//             CampaignWorkerService workers over in-process channels.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/campaign_coordinator.h"
#include "core/campaign_worker.h"
#include "core/evaluation_host.h"
#include "core/fleet_wire.h"
#include "core/proportional_filter.h"
#include "core/replay_engine.h"
#include "db/journal.h"
#include "net/communicator.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "storage/disk_array.h"
#include "trace/columnar_format.h"
#include "trace/repository.h"
#include "util/thread_pool.h"
#include "workload/workload_mode.h"

namespace {

using namespace tracer;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- clocks

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Process peak resident set (VmHWM) in MB; 0 when unavailable.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0.0;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

// ---------------------------------------------------------------- checks

/// Output checks of one run. Every failure is reported on stderr and makes
/// the run incorrect; a run is never reported as correct-but-faster.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

std::uint64_t fnv1a(std::uint64_t hash, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

std::string g17(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// The five reported figures of a record, exactly (timestamps excluded).
std::string record_figures(const db::TestRecord& r) {
  return g17(r.iops) + "," + g17(r.mbps) + "," + g17(r.avg_response_ms) + "," +
         g17(r.avg_watts) + "," + g17(r.joules);
}

/// The same figures straight from a replay report.
std::string report_figures(const core::ReplayReport& r) {
  db::TestRecord record;
  record.iops = r.perf.iops;
  record.mbps = r.perf.mbps;
  record.avg_response_ms = r.perf.avg_response_ms;
  record.avg_watts = r.avg_watts;
  record.joules = r.joules;
  return record_figures(record);
}

/// Order-independent digest of a run's results: FNV-1a over the sorted
/// "(trace, load): figures" lines.
std::string results_digest(const std::vector<db::TestRecord>& records) {
  std::vector<std::string> lines;
  lines.reserve(records.size());
  for (const auto& r : records) {
    lines.push_back(r.trace_name + "@" + g17(r.load_proportion) + ":" +
                    record_figures(r) + "\n");
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t hash = kFnvBasis;
  for (const auto& line : lines) hash = fnv1a(hash, line);
  return hex64(hash);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ----------------------------------------------------------------- sizes

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path workdir;
  bool quick = false;
  std::string expect_digest;
};

/// Workload size. The quick size is the driver's self-test: same code
/// paths, a few modes.
struct Size {
  Seconds collection_duration;  ///< peak-trace window (campaign_1250's 2 s)
  std::size_t mode_stride;      ///< every k-th grid mode (1 = all 125)
  int setups;  ///< set-up repetitions; setup_s is their median
};

Size size_for(bool quick) {
  if (quick) return {0.25, 25, 1};
  return {2.0, 1, 15};
}

const std::vector<double> kLoads = {0.1, 0.2, 0.3, 0.4, 0.5,
                                    0.6, 0.7, 0.8, 0.9, 1.0};

// ------------------------------------------------------------- pass data

/// What one closed-loop pass of a workload did.
struct PassStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;           ///< process user+sys over the pass
  double driver_cpu_s = 0.0;    ///< CPU of the thread driving the pass
  double executor_s = 0.0;      ///< sum of wrapped executor wall time
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t tests = 0;
  /// CPU time of the thread running each test ("trace@load"), in ms.
  std::map<std::string, double> test_cpu_ms;
  std::uint64_t packages = 0;
  std::vector<db::TestRecord> records;
  std::string digest;
};

/// Wraps host.run_test: the per-test latency and replay totals come from
/// here, whichever driver (runner or fleet worker) calls it.
class TimedExecutor {
 public:
  explicit TimedExecutor(core::EvaluationHost& host) : host_(host) {}

  db::TestRecord operator()(const workload::WorkloadMode& mode) {
    const auto start = Clock::now();
    const double cpu_start = thread_cpu_s();
    core::TestResult result = host_.run_test(mode);
    const double cpu_ms = (thread_cpu_s() - cpu_start) * 1e3;
    const double wall_s = seconds_since(start);
    std::string test =
        result.record.trace_name + "@" + g17(result.record.load_proportion);
    std::lock_guard<std::mutex> lock(mutex_);
    cpu_ms_[std::move(test)] = cpu_ms;
    wall_s_ += wall_s;
    packages_ += result.report.packages_replayed;
    return std::move(result.record);
  }

  /// Move the totals into `pass` (call after every executor returned).
  void drain_into(PassStats& pass) {
    std::lock_guard<std::mutex> lock(mutex_);
    pass.executor_s = wall_s_;
    pass.test_cpu_ms = std::move(cpu_ms_);
    pass.packages = packages_;
  }

 private:
  core::EvaluationHost& host_;
  std::mutex mutex_;
  std::map<std::string, double> cpu_ms_;
  double wall_s_ = 0.0;
  std::uint64_t packages_ = 0;
};

/// Fixed-latency, constant-power device: replaying against it costs the
/// DES, PerfMonitor and PowerAnalyzer, but no RAID or device model.
class NullDevice final : public storage::BlockDevice {
 public:
  NullDevice(sim::Simulator& sim, Bytes capacity)
      : BlockDevice(sim), capacity_(capacity) {}

  std::string name() const override { return "null-device"; }
  Watts power_at(Seconds) const override { return kWatts; }
  Joules energy_until(Seconds t) override { return kWatts * t; }
  Bytes capacity() const override { return capacity_; }
  std::size_t outstanding() const override { return outstanding_; }
  std::size_t max_concurrent_events() const override { return 1024; }

  void submit(const storage::IoRequest& request,
              storage::CompletionCallback done) override {
    ++outstanding_;
    const Seconds now = sim_.now();
    const storage::IoCompletion completion{request.id, now, now + kLatency,
                                           request.bytes, request.op};
    sim_.schedule_in(kLatency, [this, done = std::move(done), completion] {
      --outstanding_;
      done(completion);
    });
  }

 private:
  static constexpr Seconds kLatency = 100e-6;
  static constexpr Watts kWatts = 10.0;
  Bytes capacity_;
  std::size_t outstanding_ = 0;
};

Bytes array_capacity(const storage::ArrayConfig& config) {
  sim::Simulator sim;
  return storage::DiskArray(sim, config).capacity();
}

/// Read every bunch of a source (no replay); returns packages seen.
std::uint64_t iterate(const trace::TraceSource& source) {
  std::uint64_t packages = 0;
  for (std::size_t i = 0; i < source.bunch_count(); ++i) {
    packages += source.packages(i).size();
  }
  return packages;
}

/// The host's replay settings, restated for the driver's own replays
/// (reference checks and the null-device split).
core::ReplayOptions replay_options(const core::EvaluationOptions& options) {
  core::ReplayOptions replay;
  replay.sampling_cycle = options.sampling_cycle;
  replay.sensor_seed = options.seed ^ 0x9e3779b9ULL;
  return replay;
}

std::shared_ptr<const trace::TraceSource> filtered(
    std::shared_ptr<const trace::TraceSource> source, double load) {
  return load >= 1.0 ? source
                     : core::ProportionalFilter::apply(std::move(source), load);
}

/// Names, sizes and mtimes of a repository: any write shows up.
std::string directory_state(const fs::path& dir) {
  std::vector<std::string> entries;
  for (const auto& entry : fs::directory_iterator(dir)) {
    entries.push_back(entry.path().filename().string() + ":" +
                      std::to_string(entry.file_size()) + ":" +
                      std::to_string(entry.last_write_time()
                                         .time_since_epoch()
                                         .count()));
  }
  std::sort(entries.begin(), entries.end());
  std::string state;
  for (const auto& e : entries) state += e + "\n";
  return state;
}

/// Hash of a repository's file names and contents.
std::string directory_content_hash(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  std::uint64_t hash = kFnvBasis;
  for (const auto& file : files) {
    hash = fnv1a(hash, file.filename().string());
    std::ifstream in(file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    hash = fnv1a(hash, bytes);
  }
  return hex64(hash);
}

/// Journal append, journal merge and the fleet wire codec, timed per
/// record on the records a pass produced.
void measure_records(const fs::path& workdir,
                     const std::vector<db::TestRecord>& records,
                     std::map<std::string, double>& out, Checks& checks) {
  std::vector<double> append_us;
  std::vector<double> merge_us;
  std::vector<double> wire_us;
  const fs::path journal_path = workdir / "layer-append.journal.csv";
  const fs::path merge_path = workdir / "layer-merge.journal.csv";
  fs::remove(journal_path);
  fs::remove(merge_path);
  {
    TRACER_SPAN("perfbench.journal");
    db::CampaignJournal journal(journal_path);
    db::JournalMerger merger(merge_path);
    for (std::size_t i = 0; i < records.size(); ++i) {
      db::TestRecord record = records[i];
      record.test_id = i;
      auto start = Clock::now();
      journal.append(record);
      append_us.push_back(seconds_since(start) * 1e6);
      start = Clock::now();
      const bool fresh = merger.append_unique(record);
      merge_us.push_back(seconds_since(start) * 1e6);
      checks.expect(fresh, "journal merger rejected a new record");
    }
  }
  checks.expect(db::CampaignJournal::load(journal_path).size() == records.size(),
                "journal append lost rows");
  fs::remove(journal_path);
  fs::remove(merge_path);
  fs::remove(fs::path(merge_path.string() + ".campaign"));
  {
    TRACER_SPAN("perfbench.wire");
    for (std::size_t i = 0; i < records.size(); ++i) {
      core::ShardRecord shard;
      shard.fingerprint = 0x5eed;
      shard.shard_id = 1;
      shard.epoch = 1;
      shard.index = static_cast<std::uint32_t>(i);
      shard.record = records[i];
      shard.record.test_id = i;
      const auto start = Clock::now();
      const auto frame = core::encode_shard_record(shard).serialize();
      const auto message = net::Message::try_deserialize(frame);
      const auto decoded =
          message ? core::decode_shard_record(*message) : std::nullopt;
      wire_us.push_back(seconds_since(start) * 1e6);
      checks.expect(decoded && decoded->record == shard.record,
                    "wire codec did not round-trip record " + std::to_string(i));
    }
  }
  out["journal.append_us_p50"] = quantile(append_us, 0.5);
  out["journal.append_us_p99"] = quantile(append_us, 0.99);
  out["journal.merge_us_p50"] = quantile(merge_us, 0.5);
  out["wire.record_us_p50"] = quantile(wire_us, 0.5);
}

// -------------------------------------------------------------- workload

/// One workload: the 125-mode x 10-load matrix on the HDD testbed, peak
/// traces collected into a private repository at set-up. Campaign and fleet
/// differ only in the driver of a closed-loop pass.
class GridWorkload {
 public:
  /// `threads` executors run set-up and each pass's tests.
  GridWorkload(const Args& args, const Size& size, std::size_t threads,
               Checks& checks)
      : args_(args),
        checks_(checks),
        array_(storage::ArrayConfig::hdd_testbed(6)),
        threads_(threads) {
    options_.collection_duration = size.collection_duration;
    options_.sampling_cycle = 1.0;
    options_.threads = threads_;
    options_.seed = mix_seed(args.seed, 1);
    const auto grid = workload::synthetic_grid();
    for (std::size_t i = 0; i < grid.size(); i += size.mode_stride) {
      modes_.push_back(grid[i]);
    }
    for (const auto& base : modes_) {
      for (const double load : kLoads) {
        workload::WorkloadMode mode = base;
        mode.load_proportion = load;
        matrix_.push_back(mode);
      }
    }
  }

  virtual ~GridWorkload() = default;

  virtual PassStats pass(std::size_t index) = 0;

  /// Executor threads of one pass, and of set-up.
  std::size_t threads() const { return threads_; }

  /// One set-up repetition; returns its process CPU seconds.
  double setup(int repetition) {
    const fs::path dir = args_.workdir / ("repo-" + std::to_string(repetition));
    fs::remove_all(dir);
    const double cpu_start = process_cpu_s();
    {
      core::EvaluationHost host(array_, dir, options_);
      util::ThreadPool pool(threads_);
      pool.parallel_for(modes_.size(), [&](std::size_t i) {
        host.peak_trace_shared(modes_[i]);
      });
    }
    const double elapsed = process_cpu_s() - cpu_start;
    const std::string hash = directory_content_hash(dir);
    checks_.expect(repo_hash_.empty() || hash == repo_hash_,
                   "set-up repetition " + std::to_string(repetition) +
                       " collected different peak traces");
    repo_hash_ = hash;
    if (!repo_.empty()) fs::remove_all(repo_);
    repo_ = dir;
    repo_state_ = directory_state(repo_);
    return elapsed;
  }

  void check_repository_untouched() {
    checks_.expect(directory_state(repo_) == repo_state_,
                   "the timed phase wrote to the peak-trace repository");
  }

  /// Hygiene common to both drivers: a fresh host loaded each peak trace
  /// exactly once from the repository and generated nothing.
  void check_host(const core::EvaluationHost& host) {
    checks_.expect(host.peak_build_count() == modes_.size(),
                   "peak traces built " + std::to_string(host.peak_build_count()) +
                       " times for " + std::to_string(modes_.size()) + " modes");
  }

  /// Ten tests of the matrix replayed again directly with ReplayEngine and
  /// DiskArray, bypassing host, campaign, fleet and journal.
  void check_reference(const std::vector<db::TestRecord>& records,
                       Checks& checks) {
    std::map<std::string, const db::TestRecord*> by_test;
    for (const auto& r : records) {
      by_test[r.trace_name + "@" + g17(r.load_proportion)] = &r;
    }
    const trace::TraceRepository repository(repo_);
    constexpr std::size_t kSamples = 10;
    const std::size_t offset = mix_seed(args_.seed, 3) % matrix_.size();
    for (std::size_t k = 0; k < kSamples; ++k) {
      const auto& mode =
          matrix_[(offset + k * matrix_.size() / kSamples) % matrix_.size()];
      const trace::TraceKey key = mode.trace_key(array_.name);
      auto peak = std::make_shared<const trace::Trace>(repository.load(key));
      auto source = filtered(trace::make_source(trace::TraceView(peak)),
                             mode.load_proportion);
      core::ReplayEngine engine(replay_options(options_));
      storage::DiskArray array(engine.simulator(), array_);
      const std::string expected = report_figures(engine.replay(*source, array));
      const auto it =
          by_test.find(key.file_name() + "@" + g17(mode.load_proportion));
      checks.expect(it != by_test.end() && record_figures(*it->second) == expected,
                    "reference replay differs for " + key.file_name() + " @ " +
                        g17(mode.load_proportion));
    }
  }

  /// Driver-timed layer costs on the workload's inputs (--trace 1).
  void measure_layers(const std::vector<db::TestRecord>& records,
                      std::map<std::string, double>& out, Checks& checks) {
    const trace::TraceRepository repository(repo_);
    std::vector<std::shared_ptr<const trace::Trace>> peaks;
    std::map<std::string, std::size_t> peak_of;
    {
      TRACER_SPAN("perfbench.v1_decode");
      const auto start = Clock::now();
      for (const auto& mode : modes_) {
        const trace::TraceKey key = mode.trace_key(array_.name);
        peak_of[key.file_name()] = peaks.size();
        peaks.push_back(std::make_shared<const trace::Trace>(repository.load(key)));
      }
      out["trace.v1_decode_s"] = seconds_since(start);
    }
    const fs::path v2_dir = args_.workdir / "v2";
    fs::create_directories(v2_dir);
    std::vector<std::string> v2_paths;
    {
      TRACER_SPAN("perfbench.v2_encode");
      const auto start = Clock::now();
      for (std::size_t i = 0; i < peaks.size(); ++i) {
        v2_paths.push_back((v2_dir / (std::to_string(i) + ".replay2")).string());
        trace::write_columnar_file(v2_paths.back(), *peaks[i]);
      }
      out["trace.v2_encode_s"] = seconds_since(start);
    }
    {
      TRACER_SPAN("perfbench.v2_decode");
      const auto start = Clock::now();
      for (std::size_t i = 0; i < peaks.size(); ++i) {
        const auto source = trace::open_columnar_source(v2_paths[i]);
        checks.expect(iterate(*source) == peaks[i]->package_count(),
                      "v2 decode lost packages of " + v2_paths[i]);
      }
      out["trace.v2_decode_s"] = seconds_since(start);
    }
    fs::remove_all(v2_dir);

    // Filter: (select + iterate the selection) minus iterating the whole
    // peak trace, over every test of the matrix.
    double filtered_s = 0.0;
    double whole_s = 0.0;
    for (const auto& mode : matrix_) {
      const auto& peak = peaks[peak_of.at(mode.trace_key(array_.name).file_name())];
      auto start = Clock::now();
      iterate(*trace::make_source(trace::TraceView(peak)));
      whole_s += seconds_since(start);
      start = Clock::now();
      iterate(*filtered(trace::make_source(trace::TraceView(peak)),
                        mode.load_proportion));
      filtered_s += seconds_since(start);
    }
    out["filter.stream_iter_s"] = filtered_s - whole_s;

    // Device split: the same filtered inputs against a null device (DES,
    // PerfMonitor and PowerAnalyzer only) and against the SSD testbed, each
    // replay call timed on the pass's executor count like host.replay. Every
    // selected bunch must be replayed, with no late schedule.
    const auto replay_matrix = [&](const auto& make_device) {
      std::vector<double> seconds(matrix_.size(), 0.0);
      std::vector<char> complete(matrix_.size(), 0);
      util::ThreadPool pool(threads());
      pool.parallel_for(matrix_.size(), [&](std::size_t i) {
        const auto& mode = matrix_[i];
        const auto& peak =
            peaks[peak_of.at(mode.trace_key(array_.name).file_name())];
        auto source = filtered(trace::make_source(trace::TraceView(peak)),
                               mode.load_proportion);
        core::ReplayEngine engine(replay_options(options_));
        const auto device = make_device(engine.simulator());
        const auto start = Clock::now();
        const core::ReplayReport report = engine.replay(*source, *device);
        seconds[i] = seconds_since(start);
        complete[i] = report.bunches_replayed == source->bunch_count() &&
                      report.late_schedules == 0;
      });
      checks.expect(std::count(complete.begin(), complete.end(), 0) == 0,
                    "a device-split replay dropped bunches or ran late");
      double total = 0.0;
      for (const double s : seconds) total += s;
      return total;
    };
    const Bytes capacity = array_capacity(array_);
    {
      TRACER_SPAN("perfbench.null_device");
      out["replay.null_device_s"] = replay_matrix([&](sim::Simulator& sim) {
        return std::make_unique<NullDevice>(sim, capacity);
      });
    }
    const storage::ArrayConfig ssd = storage::ArrayConfig::ssd_testbed(4);
    {
      TRACER_SPAN("perfbench.ssd");
      out["storage.ssd_s"] = replay_matrix([&](sim::Simulator& sim) {
                               return std::make_unique<storage::DiskArray>(sim, ssd);
                             }) -
                             out["replay.null_device_s"];
    }

    measure_records(args_.workdir, records, out, checks);
  }

 protected:
  const Args& args_;
  Checks& checks_;
  storage::ArrayConfig array_;
  core::EvaluationOptions options_;
  std::size_t threads_;
  std::vector<workload::WorkloadMode> modes_;
  std::vector<workload::WorkloadMode> matrix_;
  fs::path repo_;
  std::string repo_state_;
  std::string repo_hash_;
};

class CampaignWorkload final : public GridWorkload {
 public:
  using GridWorkload::GridWorkload;

  PassStats pass(std::size_t index) override {
    const fs::path journal =
        args_.workdir / ("campaign-" + std::to_string(index) + ".journal.csv");
    core::EvaluationHost host(array_, repo_, options_);
    TimedExecutor executor(host);
    core::CampaignOptions options;
    options.journal_path = journal;
    options.max_retries = 0;
    options.threads = threads_;
    core::CampaignRunner runner(
        [&executor](const workload::WorkloadMode& mode) { return executor(mode); },
        array_.name, options);

    PassStats stats;
    const double cpu0 = process_cpu_s();
    const double driver0 = thread_cpu_s();
    const auto start = Clock::now();
    const core::CampaignReport report = runner.run(matrix_);
    stats.wall_s = seconds_since(start);
    stats.driver_cpu_s = thread_cpu_s() - driver0;
    stats.cpu_s = process_cpu_s() - cpu0;
    executor.drain_into(stats);

    stats.tests = matrix_.size();
    stats.attempted = matrix_.size();
    stats.failed = matrix_.size() - report.completed() - report.skipped();
    for (const auto& outcome : report.outcomes) {
      if (outcome.ok()) stats.records.push_back(outcome.record);
    }
    stats.digest = results_digest(stats.records);
    checks_.expect(report.skipped() == 0, "campaign resumed " +
                                              std::to_string(report.skipped()) +
                                              " tests from a journal");
    checks_.expect(report.completed() == matrix_.size(),
                   "campaign completed " + std::to_string(report.completed()) +
                       " of " + std::to_string(matrix_.size()) + " tests");
    check_host(host);
    checks_.expect(db::CampaignJournal::load(journal).size() == matrix_.size(),
                   "campaign journal does not hold every test");
    fs::remove(journal);
    return stats;
  }
};

class FleetWorkload final : public GridWorkload {
 public:
  using GridWorkload::GridWorkload;

  PassStats pass(std::size_t index) override {
    const fs::path journal =
        args_.workdir / ("fleet-" + std::to_string(index) + ".journal.csv");
    core::EvaluationHost host(array_, repo_, options_);
    TimedExecutor executor(host);
    const std::size_t workers = threads_;

    std::vector<std::unique_ptr<net::Communicator>> coordinator_side;
    std::vector<std::shared_ptr<net::Communicator>> worker_side;
    std::vector<core::CampaignCoordinator::WorkerLink> links;
    std::vector<std::unique_ptr<core::CampaignWorkerService>> services;
    for (std::size_t i = 0; i < workers; ++i) {
      auto [coordinator_end, worker_end] = net::make_channel();
      coordinator_side.push_back(
          std::make_unique<net::Communicator>(std::move(coordinator_end)));
      worker_side.push_back(
          std::make_shared<net::Communicator>(std::move(worker_end)));
      std::string name = "w";
      name += std::to_string(i);
      links.push_back({std::move(name), coordinator_side.back().get()});
      services.push_back(std::make_unique<core::CampaignWorkerService>(
          [&executor](const workload::WorkloadMode& mode) {
            return executor(mode);
          }));
    }
    core::CampaignCoordinator coordinator(
        core::CampaignIdentity{"perfbench-fleet", 0}, journal, links);

    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < workers; ++i) {
      threads.emplace_back([service = services[i].get(), comm = worker_side[i]] {
        service->serve(*comm);
      });
    }
    const auto stop = [&] {
      coordinator.stop_workers();
      for (auto& thread : threads) thread.join();
    };

    PassStats stats;
    core::FleetReport report;
    const double cpu0 = process_cpu_s();
    const double driver0 = thread_cpu_s();
    const auto start = Clock::now();
    try {
      report = coordinator.run(matrix_);
    } catch (...) {
      stop();
      throw;
    }
    stats.wall_s = seconds_since(start);
    stats.driver_cpu_s = thread_cpu_s() - driver0;
    stats.cpu_s = process_cpu_s() - cpu0;
    stop();
    executor.drain_into(stats);

    stats.records = db::CampaignJournal::load(journal);
    stats.tests = matrix_.size();
    stats.attempted = matrix_.size();
    stats.failed = matrix_.size() - std::min(matrix_.size(), report.merged);
    stats.digest = results_digest(stats.records);
    checks_.expect(report.complete && !report.stranded,
                   "fleet campaign did not complete");
    checks_.expect(report.resumed == 0, "fleet resumed " +
                                            std::to_string(report.resumed) +
                                            " tests from a journal");
    checks_.expect(report.merged == matrix_.size() &&
                       stats.records.size() == matrix_.size(),
                   "fleet journal holds " + std::to_string(stats.records.size()) +
                       " of " + std::to_string(matrix_.size()) + " tests");
    check_host(host);
    fs::remove(journal);
    fs::remove(fs::path(journal.string() + ".campaign"));
    return stats;
  }
};

// ---------------------------------------------------------------- output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

const char* sanitizers() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#else
  return "";
#endif
#else
  return "";
#endif
}

/// Counter deltas over a set of passes.
struct CounterDelta {
  obs::Snapshot before;
  obs::Snapshot after;
  double get(const char* name) const {
    return static_cast<double>(after.counter_or(name) - before.counter_or(name));
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload campaign|fleet "
               "--seed N --seconds S --trace 0|1 --workdir DIR [--quick] "
               "[--expect-digest HEX]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args.quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else if (flag == "--expect-digest") {
        args.expect_digest = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !args.workload.empty() && !args.workdir.empty() && args.seconds > 0.0;
}

/// The passes of one timed phase. Per-test CPU times are folded in and
/// records kept only as far as the checks need them (one matrix), so the
/// driver's own memory stays flat however many passes run.
struct Phase {
  std::vector<PassStats> passes;  ///< per-test fields and records emptied
  std::map<std::string, std::vector<double>> test_cpu_ms;
  std::vector<db::TestRecord> records;
};

/// Run passes until `budget_s` has elapsed (at least one).
Phase run_passes(GridWorkload& workload, double budget_s, std::size_t& next_index) {
  constexpr std::size_t kKeptRecords = 1000;
  Phase phase;
  const auto start = Clock::now();
  do {
    PassStats pass = workload.pass(next_index++);
    for (const auto& [test, ms] : pass.test_cpu_ms) phase.test_cpu_ms[test].push_back(ms);
    if (phase.records.size() < kKeptRecords) {
      phase.records.insert(phase.records.end(), pass.records.begin(),
                           pass.records.end());
    }
    pass.test_cpu_ms.clear();
    std::vector<db::TestRecord>().swap(pass.records);
    phase.passes.push_back(std::move(pass));
  } while (seconds_since(start) < budget_s);
  return phase;
}

/// Cumulative steal and total CPU ticks of the machine (/proc/stat): their
/// deltas give the share of CPU time the hypervisor withheld.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks ticks;
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

/// End-to-end metrics. Times are CPU times: on a shared virtual machine the
/// hypervisor's steal moves wall-clock figures by up to 2x between runs of
/// identical work, while CPU time stays within a few per cent. Wall-clock
/// throughput is still reported in perfbench-info and the traced run.
std::vector<Metric> end_to_end(const Phase& phase, const std::vector<double>& setup_s) {
  std::vector<double> cpu_ns;
  for (const auto& p : phase.passes) {
    cpu_ns.push_back(p.cpu_s * 1e9 /
                     static_cast<double>(std::max<std::uint64_t>(1, p.packages)));
  }
  // Each test's cost is its 10th percentile over the run's passes, so the
  // quantiles describe the test matrix rather than the machine: on a shared
  // 4-vCPU machine a test's median CPU time rose by up to 60 % over its 10th
  // percentile while neighbours were busy, and that share changed from run
  // to run (a 35 % swing of the median, 5 % of the 10th percentile). The
  // tail is p90, not p99: p99 is the 13th-slowest of 1250 tests, in the
  // steep top of the matrix, and moved by up to 28 % between runs.
  std::vector<double> test_ms;
  for (const auto& [test, ms] : phase.test_cpu_ms) test_ms.push_back(quantile(ms, 0.1));
  return {
      {"test_cpu_ms_p50", "ms", quantile(test_ms, 0.50)},
      {"test_cpu_ms_p90", "ms", quantile(test_ms, 0.90)},
      {"cpu_ns_per_pkg", "ns", median(cpu_ns)},
      {"setup_s", "s", median(setup_s)},
  };
}

double wall_rate(const Phase& phase, bool packages) {
  std::vector<double> rates;
  for (const auto& p : phase.passes) {
    rates.push_back(static_cast<double>(packages ? p.packages : p.tests) / p.wall_s);
  }
  return median(rates);
}

/// Per-layer metrics of the traced passes (see README.md for the
/// end-to-end metric each one should move).
std::vector<Metric> per_layer(GridWorkload& workload, const Phase& untraced,
                              const Phase& traced, const CounterDelta& counters,
                              double steal_frac, double rss_mb, Checks& checks) {
  std::map<std::string, double> layers;
  workload.measure_layers(traced.records, layers, checks);

  const double n = static_cast<double>(traced.passes.size());
  const double threads = static_cast<double>(workload.threads());
  double wall = 0.0, driver_cpu = 0.0, tests = 0.0;
  std::vector<double> busy, untraced_wall, traced_wall;
  for (const auto& p : traced.passes) {
    wall += p.wall_s;
    driver_cpu += p.driver_cpu_s;
    tests += static_cast<double>(p.tests);
    busy.push_back(p.executor_s / (threads * p.wall_s));
    traced_wall.push_back(p.wall_s);
  }
  for (const auto& p : untraced.passes) untraced_wall.push_back(p.wall_s);
  const double replay_s = counters.get("host.phase.replay.us") * 1e-6;
  const double generate_s = counters.get("host.phase.generate.us") * 1e-6;
  const double filter_s = counters.get("host.phase.filter.us") * 1e-6;
  const double measure_s = counters.get("host.phase.measure.us") * 1e-6;
  const double hits = counters.get("host.peak_cache.hits");
  const double lookups = hits + counters.get("host.peak_cache.misses");
  const double events = counters.get("replay.events_scheduled");
  const double packages = counters.get("replay.packages");
  const double frames =
      counters.get("net.frames_sent") + counters.get("net.frames_received");
  const double attributed = replay_s + generate_s + filter_s + measure_s;
  return {
      {"host.replay_s", "s", replay_s / n},
      {"host.generate_s", "s", generate_s / n},
      {"host.filter_s", "s", filter_s / n},
      {"host.measure_s", "s", measure_s / n},
      {"host.peak_cache_hit_ratio", "ratio", lookups > 0 ? hits / lookups : 0.0},
      {"replay.events", "count", events / n},
      {"replay.packages", "count", packages / n},
      {"replay.events_per_pkg", "events/pkg", packages > 0 ? events / packages : 0.0},
      {"replay.ns_per_event", "ns", events > 0 ? replay_s * 1e9 / events : 0.0},
      {"replay.max_in_flight", "count", counters.after.gauge_or("replay.max_in_flight")},
      {"replay.null_device_s", "s", layers["replay.null_device_s"]},
      {"storage.s", "s", replay_s / n - layers["replay.null_device_s"]},
      {"storage.ssd_s", "s", layers["storage.ssd_s"]},
      {"trace.v1_decode_s", "s", layers["trace.v1_decode_s"]},
      {"trace.v2_encode_s", "s", layers["trace.v2_encode_s"]},
      {"trace.v2_decode_s", "s", layers["trace.v2_decode_s"]},
      {"filter.stream_iter_s", "s", layers["filter.stream_iter_s"]},
      {"power.samples", "count", counters.get("power.samples") / n},
      {"journal.append_us_p50", "us", layers["journal.append_us_p50"]},
      {"journal.append_us_p99", "us", layers["journal.append_us_p99"]},
      {"journal.merge_us_p50", "us", layers["journal.merge_us_p50"]},
      {"wire.record_us_p50", "us", layers["wire.record_us_p50"]},
      {"fleet.frames_per_test", "count", frames / tests},
      {"fleet.coordinator_cpu_s", "s", driver_cpu / n},
      {"fleet.leases_granted", "count", counters.get("fleet.leases.granted") / n},
      {"fleet.records_deduped", "count", counters.get("fleet.records.deduped") / n},
      {"campaign.executor_busy_frac", "ratio", median(busy)},
      {"wall.tests_per_s", "1/s", wall_rate(traced, false)},
      {"wall.replay_pkgs_per_s", "1/s", wall_rate(traced, true)},
      {"vm.steal_frac", "ratio", steal_frac},
      {"process.peak_rss_mb", "MB", rss_mb},
      {"unattributed_frac", "ratio", 1.0 - attributed / (threads * wall)},
      {"trace_overhead_frac", "ratio", median(traced_wall) / median(untraced_wall) - 1.0},
  };
}

int run(const Args& args) {
  const std::size_t nproc = online_cpus();
  // Executor threads: one core of at most four is left to the driving
  // thread (fleet's coordinator) and the rest of the machine, so both
  // workloads keep one shape on any host. With every core busy, per-test
  // CPU time spread twice as widely between runs on a 4-vCPU machine.
  const std::size_t threads =
      std::max<std::size_t>(1, std::min<std::size_t>(nproc, 4) - 1);
  const std::string load_before = load_average();
  const Size size = size_for(args.quick);
  fs::create_directories(args.workdir);

  Checks checks;
  std::unique_ptr<GridWorkload> workload;
  if (args.workload == "campaign") {
    workload = std::make_unique<CampaignWorkload>(args, size, threads, checks);
  } else if (args.workload == "fleet") {
    workload = std::make_unique<FleetWorkload>(args, size, threads, checks);
  } else {
    return usage();
  }

  std::vector<double> setup_s;
  for (int r = 0; r < size.setups; ++r) setup_s.push_back(workload->setup(r));

  std::size_t index = 0;
  Phase untraced;
  Phase traced;
  CounterDelta counters;
  const CpuTicks ticks_before = cpu_ticks();
  if (!args.trace) {
    untraced = run_passes(*workload, args.seconds, index);
  } else {
    untraced = run_passes(*workload, args.seconds / 2, index);
    obs::Tracer::global().enable();
    counters.before = obs::Registry::global().snapshot();
    traced = run_passes(*workload, args.seconds / 2, index);
    counters.after = obs::Registry::global().snapshot();
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
  }
  const CpuTicks ticks_after = cpu_ticks();
  const double steal_frac =
      ticks_after.total > ticks_before.total
          ? (ticks_after.steal - ticks_before.steal) /
                (ticks_after.total - ticks_before.total)
          : 0.0;
  const double rss_mb = peak_rss_mb();
  const std::string load_after = load_average();
  workload->check_repository_untouched();

  std::vector<PassStats> all = untraced.passes;
  all.insert(all.end(), traced.passes.begin(), traced.passes.end());
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto& p : all) {
    attempted += p.attempted;
    failed += p.failed;
    checks.expect(p.digest == all.front().digest,
                  "results digest changed between passes");
  }
  const std::string digest = all.front().digest;
  checks.expect(args.expect_digest.empty() || digest == args.expect_digest,
                "results digest " + digest + " != pinned " + args.expect_digest);
  workload->check_reference(untraced.records, checks);

  std::vector<Metric> metrics =
      args.trace
          ? per_layer(*workload, untraced, traced, counters, steal_frac, rss_mb, checks)
          : end_to_end(untraced, setup_s);
  for (auto& m : metrics) {
    checks.expect(std::isfinite(m.value), "metric " + m.name + " is not finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }

#ifdef NDEBUG
  const bool debug_build = false;
#else
  const bool debug_build = true;
#endif
  std::printf(
      "perfbench-info {\"workload\": %s, \"seed\": %" PRIu64
      ", \"quick\": %s, \"digest\": %s, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"sanitizers\": %s, \"debug_build\": %s, \"nproc\": %zu, \"threads\": %zu, "
      "\"loadavg_before\": %s, \"loadavg_after\": %s, \"steal_frac\": %s, "
      "\"passes\": %zu, \"setup_repetitions\": %zu, \"wall_tests_per_s\": %s, "
      "\"wall_replay_pkgs_per_s\": %s}\n",
      json_string(args.workload).c_str(), args.seed, args.quick ? "true" : "false",
      json_string(digest).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_CXX_FLAGS).c_str(), json_string(sanitizers()).c_str(),
      debug_build ? "true" : "false", nproc, workload->threads(),
      json_string(load_before).c_str(), json_string(load_after).c_str(),
      g17(steal_frac).c_str(), all.size(), setup_s.size(),
      g17(wall_rate(untraced, false)).c_str(), g17(wall_rate(untraced, true)).c_str());

  std::string line = "{\"correct\": ";
  line += checks.ok() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics[i].name) + ": {\"value\": " + g17(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
