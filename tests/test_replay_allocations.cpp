// Heap-allocation regression test for the classic replay path.
//
// Replaces the global allocation functions with counting wrappers, then
// replays an HDD-array trace of N bunches and one of 10·N bunches on fresh
// engines and arrays. The second replay submits ten times the packages, so
// any per-package, per-transaction or per-child allocation in the replay
// engine, the RAID controller or the disk models shows up as thousands of
// extra allocations. What may remain is set-up (engine, array, report) and
// the amortised growth of per-replay series vectors, which is logarithmic
// in the replay length and bounded by `kGrowthSlack`.
//
// This is its own executable because replacing operator new is global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/replay_engine.h"
#include "storage/disk_array.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
  if (p != nullptr) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tracer::core {
namespace {

/// Amortised growth allowance for per-replay series (sampling cycles,
/// power samples, timeline breakpoints): each doubling of a vector is one
/// allocation, so ten times the length adds a handful per vector.
constexpr std::uint64_t kGrowthSlack = 64;

/// A load the 6-disk testbed sustains, so the queues stay bounded and the
/// longer trace is the shorter one repeated in time: random and
/// sequential extents, reads and writes, multi-package bunches (merges,
/// RMW and full-stripe writes all occur).
trace::Trace sustainable_trace(std::size_t bunches) {
  util::Rng rng(5);
  trace::Trace trace;
  trace.device = "dev";
  Sector seq_cursor = 8192;
  for (std::size_t b = 0; b < bunches; ++b) {
    trace::Bunch bunch;
    bunch.timestamp = static_cast<double>(b) * 0.02;
    const std::size_t packages = 1 + rng.below(3);
    for (std::size_t p = 0; p < packages; ++p) {
      trace::IoPackage pkg;
      if (rng.chance(0.4)) {
        pkg.sector = seq_cursor;
        pkg.bytes = 64 * kKiB;
        seq_cursor += pkg.bytes / kSectorSize;
      } else {
        pkg.sector = rng.below(1ULL << 28) * 8;
        pkg.bytes = (1 + rng.below(16)) * 4096;
      }
      pkg.op = rng.chance(0.6) ? OpType::kRead : OpType::kWrite;
      bunch.packages.push_back(pkg);
    }
    trace.bunches.push_back(std::move(bunch));
  }
  return trace;
}

struct Counted {
  std::uint64_t allocations = 0;
  ReplayReport report;
};

Counted replay_counted(const trace::Trace& trace, int failed_disk) {
  const std::uint64_t before = g_allocations.load();
  Counted counted;
  {
    ReplayEngine engine;
    storage::DiskArray array(engine.simulator(),
                             storage::ArrayConfig::hdd_testbed(6));
    if (failed_disk >= 0) {
      array.controller().fail_disk(static_cast<std::size_t>(failed_disk));
    }
    counted.report = engine.replay(trace, array);
  }
  counted.allocations = g_allocations.load() - before;
  return counted;
}

void expect_flat_allocations(int failed_disk) {
  constexpr std::size_t kBunches = 400;
  const trace::Trace small = sustainable_trace(kBunches);
  const trace::Trace large = sustainable_trace(10 * kBunches);

  const Counted a = replay_counted(small, failed_disk);
  const Counted b = replay_counted(large, failed_disk);
  ASSERT_GT(a.report.packages_replayed, 0u);
  ASSERT_GT(b.report.packages_replayed, 9 * a.report.packages_replayed);
  // The load must be sustainable, or queue growth (not per-package cost)
  // would be measured.
  ASSERT_LT(b.report.perf.avg_response_ms, 200.0);
  EXPECT_LE(b.allocations, a.allocations + kGrowthSlack)
      << a.report.packages_replayed << " packages: " << a.allocations
      << " allocations; " << b.report.packages_replayed
      << " packages: " << b.allocations << " allocations";
}

TEST(ReplayAllocations, HealthyHddArrayDoesNotAllocatePerPackage) {
  expect_flat_allocations(-1);
}

TEST(ReplayAllocations, DegradedHddArrayDoesNotAllocatePerPackage) {
  expect_flat_allocations(2);
}

TEST(ReplayAllocations, CounterSeesHeapAllocations) {
  // Guards against the replacement silently not being linked in. A direct
  // call, because a new-expression's allocation may be elided.
  const std::uint64_t before = g_allocations.load();
  void* p = ::operator new(16);
  const std::uint64_t after = g_allocations.load();
  ::operator delete(p);
  EXPECT_EQ(after, before + 1);
}

}  // namespace
}  // namespace tracer::core
