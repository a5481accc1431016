#include "core/proportional_filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"
#include "util/string_util.h"

namespace tracer::core {

namespace {

using Index = trace::TraceSource::Index;

// Selected positions under the uniform pattern for a sequence of `count`
// bunches.
std::vector<Index> uniform_positions(std::size_t count,
                                     const std::vector<bool>& pattern,
                                     std::size_t select_count,
                                     std::size_t group_size) {
  std::vector<Index> positions;
  positions.reserve(count * select_count / group_size + 1);
  for (std::size_t i = 0; i < count; ++i) {
    if (pattern[i % group_size]) {
      positions.push_back(static_cast<Index>(i));
    }
  }
  return positions;
}

// Selected positions for the random-within-group baseline. The RNG draw
// sequence is part of the contract: a given seed selects the same bunches
// in every release.
std::vector<Index> random_positions(std::size_t count, std::size_t select_count,
                                    std::size_t group_size,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Index> selected;
  selected.reserve(count * select_count / group_size + select_count);
  std::vector<std::size_t> positions(group_size);
  for (std::size_t group_start = 0; group_start < count;
       group_start += group_size) {
    const std::size_t group_len = std::min(group_size, count - group_start);
    // Partial Fisher-Yates: draw `take` distinct positions within the group.
    positions.resize(group_len);
    for (std::size_t i = 0; i < group_len; ++i) positions[i] = i;
    const std::size_t take = std::min(select_count, group_len);
    for (std::size_t i = 0; i < take; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.below(group_len - i));
      std::swap(positions[i], positions[j]);
    }
    std::sort(positions.begin(),
              positions.begin() + static_cast<std::ptrdiff_t>(take));
    for (std::size_t i = 0; i < take; ++i) {
      selected.push_back(static_cast<Index>(group_start + positions[i]));
    }
  }
  return selected;
}

}  // namespace

std::vector<bool> ProportionalFilter::selection_pattern(
    std::size_t group_size, std::size_t select_count) {
  if (group_size == 0 || select_count == 0 || select_count > group_size) {
    throw std::invalid_argument(
        "ProportionalFilter: need 1 <= select_count <= group_size");
  }
  std::vector<bool> pattern(group_size, false);
  for (std::size_t i = 0; i < group_size; ++i) {
    const std::size_t before = i * select_count / group_size;
    const std::size_t after = (i + 1) * select_count / group_size;
    pattern[i] = after > before;
  }
  return pattern;
}

std::size_t ProportionalFilter::select_count_for(double proportion,
                                                 std::size_t group_size) {
  if (!(proportion > 0.0) || proportion > 1.0) {
    throw std::invalid_argument(
        "ProportionalFilter: proportion must be in (0, 1]");
  }
  // The filter's resolution floor is 1/(2*group_size): below it the
  // nearest representable k would be 0 bunches. Silently clamping to k=1
  // used to replay at 1/group_size load (e.g. 10x the requested 0.04), so
  // refuse instead and point at the tool that can go finer.
  const double scaled = proportion * static_cast<double>(group_size);
  if (scaled < 0.5) {
    throw std::domain_error(util::format(
        "ProportionalFilter: proportion %g is below the resolution floor "
        "1/(2*%zu); use InterarrivalScaler for finer load control "
        "(docs/MODELS.md)",
        proportion, group_size));
  }
  const auto k = static_cast<std::size_t>(std::lround(scaled));
  return std::clamp<std::size_t>(k, 1, group_size);
}

std::shared_ptr<const trace::TraceSource> ProportionalFilter::apply(
    std::shared_ptr<const trace::TraceSource> source, double proportion,
    std::size_t group_size) {
  if (source == nullptr) {
    throw std::invalid_argument("ProportionalFilter: null source");
  }
  const std::size_t k = select_count_for(proportion, group_size);
  const auto pattern = selection_pattern(group_size, k);
  auto positions =
      uniform_positions(source->bunch_count(), pattern, k, group_size);
  return trace::TraceSlice::select(std::move(source), std::move(positions));
}

std::shared_ptr<const trace::TraceSource> ProportionalFilter::apply_random(
    std::shared_ptr<const trace::TraceSource> source, double proportion,
    std::uint64_t seed, std::size_t group_size) {
  if (source == nullptr) {
    throw std::invalid_argument("ProportionalFilter: null source");
  }
  const std::size_t k = select_count_for(proportion, group_size);
  auto positions = random_positions(source->bunch_count(), k, group_size, seed);
  return trace::TraceSlice::select(std::move(source), std::move(positions));
}

}  // namespace tracer::core
