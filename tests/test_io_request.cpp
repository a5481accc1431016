// CompletionCallback (routes and owned closures) and the overflow-safe
// request range check.
#include "storage/io_request.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

namespace tracer::storage {
namespace {

static_assert(std::is_nothrow_move_constructible_v<CompletionCallback>);
static_assert(std::is_nothrow_move_assignable_v<CompletionCallback>);
static_assert(!std::is_copy_constructible_v<CompletionCallback>);
static_assert(!std::is_copy_assignable_v<CompletionCallback>);

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
  TagSink sink;
  const std::uint64_t tag = std::uint64_t{3} << 32 | 7;
  const CompletionCallback done(sink, tag);
  ASSERT_TRUE(done);
  done(IoCompletion{42, 0.0, 1.0, 512, OpType::kRead});
  done(IoCompletion{43, 0.0, 1.0, 512, OpType::kWrite});
  EXPECT_EQ(sink.seen,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {tag, 42}, {tag, 43}}));
}

TEST(CompletionCallback, MovedFromCallbackIsEmpty) {
  EXPECT_FALSE(CompletionCallback());
  TagSink sink;
  CompletionCallback a(sink, 5);
  CompletionCallback b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): the state under test
  ASSERT_TRUE(b);
  CompletionCallback c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move): the state under test
  ASSERT_TRUE(c);
  c(IoCompletion{9, 0.0, 0.0, 512, OpType::kRead});
  ASSERT_EQ(sink.seen.size(), 1u);
  EXPECT_EQ(sink.seen[0].first, 5u);

  int destroyed = 0, calls = 0;
  CompletionCallback owned(Probe(&destroyed, &calls));
  CompletionCallback moved(std::move(owned));
  EXPECT_FALSE(owned);  // NOLINT(bugprone-use-after-move): the state under test
  moved(IoCompletion{});
  EXPECT_EQ(calls, 1);
}

TEST(CompletionCallback, OwnedClosureIsDestroyedExactlyOnce) {
  int destroyed = 0, calls = 0;
  {
    CompletionCallback a(Probe(&destroyed, &calls));
    CompletionCallback b(std::move(a));
    CompletionCallback c;
    c = std::move(b);
    c(IoCompletion{});
    c(IoCompletion{});
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);

  // Assigning over an owned closure destroys it then, not later.
  TagSink sink;
  CompletionCallback d(Probe(&destroyed, &calls));
  d = CompletionCallback(sink, 1);
  EXPECT_EQ(destroyed, 2);
  d(IoCompletion{});
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(sink.seen.size(), 1u);
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
