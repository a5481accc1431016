#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace tracer::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&hits](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [](std::size_t i) {
                          if (i == 3) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForStopsRunningWorkAfterFailure) {
  // One worker makes execution order deterministic: index 0 throws, so no
  // later index may run — queued tasks skip themselves once the sweep has
  // failed instead of burning time on a doomed run.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.parallel_for(100,
                                 [&executed](std::size_t i) {
                                   ++executed;
                                   if (i == 0) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 1);
}

TEST(ThreadPool, ParallelForSkipsEverythingWhenAlreadyCancelled) {
  ThreadPool pool(2);
  CancelToken cancel;
  cancel.request_cancel();
  std::atomic<int> executed{0};
  pool.parallel_for(
      50, [&executed](std::size_t) { ++executed; }, &cancel);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPool, ParallelForStopsAfterMidRunCancellation) {
  ThreadPool pool(1);
  CancelToken cancel;
  std::atomic<int> executed{0};
  pool.parallel_for(
      100,
      [&executed, &cancel](std::size_t i) {
        ++executed;
        if (i == 2) cancel.request_cancel();
      },
      &cancel);
  EXPECT_EQ(executed.load(), 3);  // indices 0..2, then the rest skipped
}

TEST(CancelToken, SleepRunsToCompletionWhenNotCancelled) {
  CancelToken token;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(token.sleep_for(0.02));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed.count(), 0.015);
}

TEST(CancelToken, SleepWakesEarlyOnCancellation) {
  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.request_cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(token.sleep_for(30.0));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  canceller.join();
  EXPECT_LT(elapsed.count(), 5.0);  // nowhere near the 30 s request
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(ThreadPool, TaskExceptionSurfacesViaFuture) {
  ThreadPool pool(1);
  auto future = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(future.get(), std::logic_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }  // destructor must wait for all 50
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TasksRunConcurrently) {
  // Each task announces itself, then waits for the other before it
  // finishes, so neither can complete before both are in flight however
  // the workers are scheduled. A pool that runs them one after the other
  // leaves the first waiting alone; the deadline turns that into a failure
  // instead of a hang.
  ThreadPool pool(2);
  std::atomic<int> in_flight{0};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const auto task = [&] {
    ++in_flight;
    while (in_flight.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto a = pool.submit(task);
  auto b = pool.submit(task);
  EXPECT_TRUE(a.get()) << "task a never saw b in flight";
  EXPECT_TRUE(b.get()) << "task b never saw a in flight";
}

}  // namespace
}  // namespace tracer::util
