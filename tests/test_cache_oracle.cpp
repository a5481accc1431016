// Cache oracle (2DIO, PAPERS.md): Mattson's stack-distance pass computes
// the exact LRU hit count of every cache size in one sweep over a trace.
// For a read-only trace of line-aligned, one-line requests with the SSD
// tier off, CacheTier's DRAM hits must equal the number of accesses whose
// stack distance is below capacity / line_size, for each capacity. The
// reference below shares no code with cache_tier.cpp.
//
// Requests go one at a time against one HddModel: each miss's fill lands
// before the next request, so the cache sees exactly the trace's order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "storage/cache_tier.h"
#include "storage/callback_sink.h"
#include "storage/hdd_model.h"

namespace tracer::storage {
namespace {

constexpr Bytes kLine = 64 * kKiB;
constexpr std::size_t kMaxLines = 64;

/// Skewed line sequence: a hot set of 8 lines takes half the accesses,
/// the rest spread uniformly over all 64.
std::vector<std::uint64_t> line_trace(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> hot(0, 7);
  std::uniform_int_distribution<std::uint64_t> any(0, kMaxLines - 1);
  std::vector<std::uint64_t> lines(n);
  for (auto& line : lines) line = rng() % 2 ? hot(rng) : any(rng);
  return lines;
}

/// Mattson's LRU stack: distance = depth of the line in the recency stack
/// (0 = most recent), or SIZE_MAX on first touch.
std::vector<std::size_t> stack_distances(
    const std::vector<std::uint64_t>& lines) {
  std::vector<std::uint64_t> stack;  // front = most recently used
  std::vector<std::size_t> distances;
  for (std::uint64_t line : lines) {
    const auto it = std::find(stack.begin(), stack.end(), line);
    distances.push_back(it == stack.end()
                            ? SIZE_MAX
                            : static_cast<std::size_t>(it - stack.begin()));
    if (it != stack.end()) stack.erase(it);
    stack.insert(stack.begin(), line);
  }
  return distances;
}

std::uint64_t cache_tier_hits(const std::vector<std::uint64_t>& lines,
                              std::size_t capacity_lines) {
  sim::Simulator sim;
  HddModel hdd(sim, HddParams{}, /*seed=*/7);
  CacheTierParams params;
  params.line_size = kLine;
  params.capacity = capacity_lines * kLine;
  CacheTier cache(sim, params, hdd);
  std::uint64_t id = 0;
  for (std::uint64_t line : lines) {
    CallbackSink done;
    cache.submit(IoRequest{++id, line * (kLine / kSectorSize), kLine,
                           OpType::kRead},
                 done.bind([](const IoCompletion&) {}));
    sim.run();  // the fill lands before the next request
  }
  EXPECT_EQ(cache.stats().tier_hits, 0u);
  return cache.stats().hits;
}

TEST(CacheOracle, MattsonStackDistancesPredictDramHits) {
  const std::vector<std::uint64_t> lines = line_trace(3000, 2024);
  const std::vector<std::size_t> distances = stack_distances(lines);
  for (std::size_t capacity : {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}) {
    const auto predicted = static_cast<std::uint64_t>(
        std::count_if(distances.begin(), distances.end(),
                      [capacity](std::size_t d) { return d < capacity; }));
    EXPECT_EQ(cache_tier_hits(lines, capacity), predicted)
        << "capacity " << capacity << " lines";
  }
}

}  // namespace
}  // namespace tracer::storage
