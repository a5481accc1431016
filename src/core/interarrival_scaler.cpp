#include "core/interarrival_scaler.h"

#include <stdexcept>

namespace tracer::core {

std::shared_ptr<const trace::TraceSource> InterarrivalScaler::scale(
    std::shared_ptr<const trace::TraceSource> source, double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("InterarrivalScaler: factor must be > 0");
  }
  return trace::TraceSlice::scaled(std::move(source), factor);
}

std::shared_ptr<const trace::TraceSource> InterarrivalScaler::scale_to_duration(
    std::shared_ptr<const trace::TraceSource> source,
    Seconds target_duration) {
  if (!(target_duration > 0.0)) {
    throw std::invalid_argument(
        "InterarrivalScaler: target duration must be > 0");
  }
  if (source == nullptr) {
    throw std::invalid_argument("InterarrivalScaler: null source");
  }
  const Seconds duration = source->duration();
  if (duration <= 0.0) return source;  // single-instant traces can't stretch
  return trace::TraceSlice::scaled(std::move(source),
                                   duration / target_duration);
}

}  // namespace tracer::core
