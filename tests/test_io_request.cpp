// CompletionCallback routes, CallbackSink (closures as routes) and the
// overflow-safe request range check.
#include "storage/io_request.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "storage/callback_sink.h"
#include "storage/hdd_model.h"

namespace tracer::storage {
namespace {

// Requests move through queues, batches and slots as plain copies.
static_assert(std::is_trivially_copyable_v<CompletionCallback>);
static_assert(std::is_trivially_copyable_v<PendingIo>);

/// Records (tag, completion id) for every routed completion.
class TagSink final : public IoSink {
 public:
  void on_complete(std::uint64_t tag, const IoCompletion& c) override {
    seen.emplace_back(tag, c.id);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;
};

/// Closure that counts how many live copies of it were destroyed (moved-
/// from shells do not count) and how often it was called.
struct Probe {
  int* destroyed;
  int* calls;
  bool live = true;

  Probe(int* d, int* c) : destroyed(d), calls(c) {}
  Probe(Probe&& other) noexcept
      : destroyed(other.destroyed), calls(other.calls) {
    other.live = false;
  }
  Probe(const Probe&) = delete;
  ~Probe() {
    if (live) ++*destroyed;
  }
  void operator()(const IoCompletion&) const { ++*calls; }
};

TEST(CompletionCallback, RouteDeliversItsTag) {
  EXPECT_FALSE(CompletionCallback());
  TagSink sink;
  const std::uint64_t tag = std::uint64_t{3} << 32 | 7;
  const CompletionCallback done(sink, tag);
  ASSERT_TRUE(done);
  done(IoCompletion{42, 0.0, 1.0, 512, OpType::kRead});
  const CompletionCallback copy = done;  // a copy is the same route
  copy(IoCompletion{43, 0.0, 1.0, 512, OpType::kWrite});
  EXPECT_EQ(sink.seen,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {tag, 42}, {tag, 43}}));
}

TEST(CallbackSink, FiredClosureIsDestroyedExactlyOnce) {
  int destroyed = 0, calls = 0;
  CallbackSink sink;
  const CompletionCallback first = sink.bind(Probe(&destroyed, &calls));
  EXPECT_EQ(sink.pending(), 1u);
  EXPECT_EQ(destroyed, 0);
  first(IoCompletion{});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);  // once, right after it ran
  EXPECT_EQ(sink.pending(), 0u);

  // The freed slot is reused, also by a closure bound while one runs
  // (its slot is free before it is called).
  CompletionCallback inner;
  const CompletionCallback outer = sink.bind([&](const IoCompletion&) {
    inner = sink.bind(Probe(&destroyed, &calls));
  });
  EXPECT_EQ(outer, first);
  outer(IoCompletion{});
  EXPECT_EQ(inner, first);
  inner(IoCompletion{});
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(sink.pending(), 0u);
}

TEST(CallbackSink, UnfiredClosuresAreDestroyedWithTheSink) {
  int destroyed = 0, calls = 0;
  {
    CallbackSink sink;
    sink.bind(Probe(&destroyed, &calls));
    const CompletionCallback fired = sink.bind(Probe(&destroyed, &calls));
    sink.bind(Probe(&destroyed, &calls));
    fired(IoCompletion{});
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(sink.pending(), 2u);
  }
  EXPECT_EQ(destroyed, 3);
  EXPECT_EQ(calls, 1);
}

TEST(CallbackSink, RejectedSubmitLeavesNoClosureBehind) {
  int destroyed = 0, calls = 0;
  sim::Simulator sim;
  HddModel hdd(sim, HddParams{}, 1);
  CallbackSink sink;
  EXPECT_THROW(sink.submit(hdd, IoRequest{1, 0, 0, OpType::kRead},
                           Probe(&destroyed, &calls)),
               std::invalid_argument);
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(sink.pending(), 0u);

  sink.submit(hdd, IoRequest{2, 0, 4096, OpType::kRead},
              Probe(&destroyed, &calls));
  EXPECT_EQ(sink.pending(), 1u);
  sim.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(sink.pending(), 0u);
}

TEST(RangeFits, AcceptsExactlyTheDevice) {
  const Bytes capacity = 100 * kSectorSize;
  EXPECT_TRUE(range_fits(0, capacity, capacity));
  EXPECT_TRUE(range_fits(92, 8 * kSectorSize, capacity));
  EXPECT_TRUE(range_fits(100, 0, capacity));
  EXPECT_FALSE(range_fits(92, 8 * kSectorSize + 1, capacity));
  EXPECT_FALSE(range_fits(101, 0, capacity));
  EXPECT_FALSE(range_fits(0, capacity + 1, capacity));
}

TEST(RangeFits, NeverWrapsPastTwoToThe64) {
  const Bytes capacity = kGiB;
  // sector * 512 and the end offset both wrap to small values here.
  EXPECT_FALSE(range_fits(Sector{1} << 56, 4096, capacity));
  EXPECT_FALSE(range_fits(~Sector{0}, kSectorSize, capacity));
  EXPECT_FALSE(range_fits(0, ~Bytes{0}, capacity));
  // Byte-granular form (unit 1), as RaidGeometry::map_into uses it.
  EXPECT_FALSE(range_fits(~Bytes{0} - 1023, 4096, capacity, 1));
  EXPECT_TRUE(range_fits(capacity - 4096, 4096, capacity, 1));
}

}  // namespace
}  // namespace tracer::storage
