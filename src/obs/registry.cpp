#include "obs/registry.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace tracer::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Minimal JSON string escaping (names are code-chosen, but stay safe).
std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

namespace {
// Validate before the member initializers run: a bad range must throw
// invalid_argument, not feed a negative bin count into vector's allocator.
std::size_t checked_bin_count(double lo, double hi,
                              std::size_t bins_per_decade) {
  if (!(lo > 0.0) || !(hi > lo) || bins_per_decade == 0) {
    throw std::invalid_argument(
        "LogScale: need 0 < lo < hi and bins_per_decade > 0");
  }
  return static_cast<std::size_t>(std::ceil(
      (std::log10(hi) - std::log10(lo)) * static_cast<double>(bins_per_decade)));
}
}  // namespace

LogScale::LogScale(double lo, double hi, std::size_t bins_per_decade)
    : lo_(lo), hi_(hi), log_lo_(std::log10(lo)),
      bins_per_log10_(static_cast<double>(bins_per_decade)),
      bin_count_(checked_bin_count(lo, hi, bins_per_decade)),
      edges_(bin_count_ + 1, lo) {
  // The formula index() reproduces, for x > lo.
  const auto by_log10 = [this](double x) {
    const double pos = (std::log10(x) - log_lo_) * bins_per_log10_;
    return std::min(static_cast<std::size_t>(pos), bin_count_ - 1);
  };
  // Bisect over the ordered bit patterns of positive doubles for the first
  // double of each bin; the largest finite double lies in the last bin.
  const auto max_bits =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::max());
  for (std::size_t i = 1; i < bin_count_; ++i) {
    std::uint64_t below = std::bit_cast<std::uint64_t>(edges_[i - 1]);
    std::uint64_t above = max_bits;
    while (above - below > 1) {
      const std::uint64_t mid = below + (above - below) / 2;
      if (by_log10(std::bit_cast<double>(mid)) >= i) {
        above = mid;
      } else {
        below = mid;
      }
    }
    edges_[i] = std::bit_cast<double>(above);
  }
  edges_[bin_count_] = std::numeric_limits<double>::infinity();

  // index() looks cells up only for lo < x < edges_[bin_count_ - 1].
  first_cell_ = cell(lo_);
  cell_bin_.resize(cell(edges_[bin_count_ - 1]) - first_cell_ + 1);
  std::size_t bin = 0;
  for (std::size_t k = 0; k < cell_bin_.size(); ++k) {
    const double start =
        std::bit_cast<double>((first_cell_ + k) << (52 - kCellBits));
    while (bin + 1 < bin_count_ && edges_[bin + 1] <= start) ++bin;
    cell_bin_[k] = static_cast<std::uint32_t>(bin);
  }
}

double LogScale::bin_lo(std::size_t i) const {
  return std::pow(10.0, log_lo_ + static_cast<double>(i) / bins_per_log10_);
}

std::uint64_t Snapshot::counter_or(std::string_view name,
                                   std::uint64_t fallback) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return fallback;
}

double Snapshot::gauge_or(std::string_view name, double fallback) const {
  for (const auto& [key, value] : gauges) {
    if (key == name) return value;
  }
  return fallback;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(name) + "\": " + format_double(value);
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string Snapshot::to_csv() const {
  // Names are dot-separated identifiers (never commas/quotes), so plain
  // CSV rows are unambiguous.
  std::string out = "kind,name,value\n";
  for (const auto& [name, value] : counters) {
    out += "counter," + name + "," + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += "gauge," + name + "," + format_double(value) + "\n";
  }
  return out;
}

void Snapshot::write_json(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("Snapshot: cannot write " + path.string());
  }
  out << to_json();
}

void Snapshot::write_csv(const std::filesystem::path& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("Snapshot: cannot write " + path.string());
  }
  out << to_csv();
}

Registry& Registry::global() {
  // Leaked on purpose: instrumented code may run during static destruction.
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::counter(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  util::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Snapshot Registry::snapshot() const {
  util::MutexLock lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  return snap;
}

void Registry::reset_values() {
  util::MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
}

ScopedTimer::ScopedTimer(Counter& micros, Counter& calls) noexcept
    : micros_(micros), calls_(calls), begin_ns_(steady_ns()) {}

ScopedTimer::~ScopedTimer() {
  micros_.add((steady_ns() - begin_ns_) / 1000);
  calls_.increment();
}

}  // namespace tracer::obs
