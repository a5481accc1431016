#include "util/small_function.h"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>

namespace tracer::util {
namespace {

using Fn = SmallFunction<void(), 112>;
using IntFn = SmallFunction<int(int), 112>;

TEST(SmallFunction, DefaultIsEmpty) {
  Fn fn;
  EXPECT_FALSE(fn);
  Fn null_fn(nullptr);
  EXPECT_FALSE(null_fn);
}

TEST(SmallFunction, InvokesSmallClosureInline) {
  int counter = 0;
  Fn fn([&counter] { ++counter; });
  ASSERT_TRUE(fn);
  EXPECT_TRUE(fn.stored_inline());
  fn();
  fn();
  EXPECT_EQ(counter, 2);
}

TEST(SmallFunction, ForwardsArgumentsAndReturnValues) {
  IntFn fn([](int x) { return x * 3; });
  EXPECT_EQ(fn(14), 42);
}

TEST(SmallFunction, LargeClosureFallsBackToHeap) {
  std::array<double, 32> payload{};  // 256 bytes > 112-byte buffer
  payload[7] = 1.5;
  SmallFunction<double(), 112> fn([payload] { return payload[7]; });
  ASSERT_TRUE(fn);
  EXPECT_FALSE(fn.stored_inline());
  EXPECT_DOUBLE_EQ(fn(), 1.5);
}

TEST(SmallFunction, FitsInlinePredicateMatchesStorage) {
  auto small = [] {};
  auto big = [payload = std::array<char, 200>{}] { (void)payload; };
  static_assert(Fn::fits_inline<decltype(small)>);
  static_assert(!Fn::fits_inline<decltype(big)>);
  EXPECT_TRUE(Fn(small).stored_inline());
  EXPECT_FALSE(Fn(big).stored_inline());
}

TEST(SmallFunction, ReplayEngineSizedCapturesStayInline) {
  // Test and bench devices capture a request and a completion callback
  // (~96 bytes); they must not regress onto the heap.
  struct Pending {
    std::uint64_t id, sector, bytes, op;
    double submit_time;
    std::function<void(int)> done;
  };
  auto completion = [p = Pending{}, finish = 0.0, used = std::size_t{0}]() {
    (void)finish;
    (void)used;
    (void)p;
  };
  static_assert(Fn::fits_inline<decltype(completion)>);
}

TEST(SmallFunction, MoveTransfersOwnership) {
  int counter = 0;
  Fn a([&counter] { ++counter; });
  Fn b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(counter, 1);

  Fn c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(counter, 2);
}

TEST(SmallFunction, MoveAssignDestroysPreviousTarget) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  Fn holder([token] { (void)token; });
  token.reset();
  EXPECT_FALSE(alive.expired());
  holder = Fn([] {});
  EXPECT_TRUE(alive.expired());
}

TEST(SmallFunction, DestructorReleasesHeapClosure) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> alive = token;
  {
    std::array<char, 200> ballast{};
    SmallFunction<void(), 112> fn([token, ballast] { (void)ballast; });
    EXPECT_FALSE(fn.stored_inline());
    token.reset();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired());
}

TEST(SmallFunction, ResetEmptiesAndReleases) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  Fn fn([token] { (void)token; });
  token.reset();
  fn.reset();
  EXPECT_FALSE(fn);
  EXPECT_TRUE(alive.expired());
}

TEST(SmallFunction, WrapsStdFunctionLvalue) {
  int hits = 0;
  std::function<void()> stdfn = [&hits] { ++hits; };
  Fn fn(stdfn);
  EXPECT_TRUE(fn.stored_inline());  // std::function is 32 bytes on libstdc++
  fn();
  stdfn();
  EXPECT_EQ(hits, 2);
}

TEST(SmallFunction, MutableClosureKeepsState) {
  SmallFunction<int(), 112> fn([n = 0]() mutable { return ++n; });
  EXPECT_EQ(fn(), 1);
  EXPECT_EQ(fn(), 2);
  EXPECT_EQ(fn(), 3);
}

}  // namespace
}  // namespace tracer::util
