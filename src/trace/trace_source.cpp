#include "trace/trace_source.h"

#include <limits>
#include <stdexcept>
#include <utility>

namespace tracer::trace {

namespace {
const std::string kNoDevice;
}  // namespace

double TraceSource::mean_request_size() const {
  const std::uint64_t packages = package_count();
  if (packages == 0) return 0.0;
  return static_cast<double>(total_bytes()) / static_cast<double>(packages);
}

TraceView::TraceView(std::shared_ptr<const Trace> trace)
    : trace_(std::move(trace)) {
  if (trace_ != nullptr &&
      trace_->bunches.size() > std::numeric_limits<Index>::max()) {
    throw std::invalid_argument(
        "TraceView: trace exceeds the 2^32-bunch selection index range");
  }
}

TraceView TraceView::borrowed(const Trace& trace) {
  // Aliasing shared_ptr with no ownership: the caller keeps `trace` alive.
  return TraceView(std::shared_ptr<const Trace>(std::shared_ptr<void>(),
                                                &trace));
}

TraceView TraceView::owning(Trace trace) {
  return TraceView(std::make_shared<const Trace>(std::move(trace)));
}

const std::string& TraceView::device() const {
  return trace_ ? trace_->device : kNoDevice;
}

TraceSlice::TraceSlice(std::shared_ptr<const TraceSource> base,
                       std::vector<Index> positions, bool select_all,
                       double divisor)
    : base_(std::move(base)),
      selection_(std::move(positions)),
      select_all_(select_all),
      divisor_(divisor) {}

std::shared_ptr<const TraceSource> TraceSlice::select(
    std::shared_ptr<const TraceSource> base, std::vector<Index> positions) {
  if (base == nullptr) {
    throw std::invalid_argument("TraceSlice: null base source");
  }
  const std::size_t base_count = base->bunch_count();
  std::size_t previous = 0;
  bool first = true;
  for (const Index position : positions) {
    if (position >= base_count ||
        (!first && position <= previous)) {
      throw std::invalid_argument(
          "TraceSlice: positions must be strictly increasing and in range");
    }
    previous = position;
    first = false;
  }
  // Same accumulated divisor: selecting does not rescale time.
  const double divisor = base->time_divisor();
  return std::shared_ptr<const TraceSource>(
      new TraceSlice(std::move(base), std::move(positions), false, divisor));
}

std::shared_ptr<const TraceSource> TraceSlice::scaled(
    std::shared_ptr<const TraceSource> base, double factor) {
  if (base == nullptr) {
    throw std::invalid_argument("TraceSlice: null base source");
  }
  if (!(factor > 0.0)) {
    throw std::invalid_argument("TraceSlice: scale factor must be > 0");
  }
  // Divisors multiply in application order: scale(f1) then scale(f2)
  // divides raw timestamps by (1 * f1) * f2.
  const double divisor = base->time_divisor() * factor;
  return std::shared_ptr<const TraceSource>(
      new TraceSlice(std::move(base), {}, true, divisor));
}

std::uint64_t TraceSlice::package_count() const {
  if (select_all_) return base_->package_count();
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < selection_.size(); ++i) {
    count += base_->packages(selection_[i]).size();
  }
  return count;
}

Bytes TraceSlice::total_bytes() const {
  if (select_all_) return base_->total_bytes();
  Bytes total = 0;
  for (std::size_t i = 0; i < selection_.size(); ++i) {
    for (const IoPackage& pkg : base_->packages(selection_[i])) {
      total += pkg.bytes;
    }
  }
  return total;
}

double TraceSlice::read_ratio() const {
  if (select_all_) return base_->read_ratio();
  std::uint64_t reads = 0;
  std::uint64_t packages = 0;
  for (std::size_t i = 0; i < selection_.size(); ++i) {
    for (const IoPackage& pkg : base_->packages(selection_[i])) {
      ++packages;
      if (pkg.op == OpType::kRead) ++reads;
    }
  }
  return packages == 0
             ? 0.0
             : static_cast<double>(reads) / static_cast<double>(packages);
}

std::shared_ptr<const TraceSource> make_source(TraceView view) {
  return std::make_shared<const TraceView>(std::move(view));
}

Trace materialize(const TraceSource& source) {
  Trace out;
  out.device = source.device();
  const std::size_t count = source.bunch_count();
  out.bunches.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Bunch bunch;
    bunch.timestamp = source.timestamp(i);
    bunch.packages = source.packages(i);
    out.bunches.push_back(std::move(bunch));
  }
  return out;
}

}  // namespace tracer::trace
