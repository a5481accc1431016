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

}  // namespace tracer::core
