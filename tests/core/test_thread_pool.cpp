#include "core/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rhw {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndNegativeAreNoOps) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](int64_t, int64_t) { ++calls; });
  pool.parallel_for(-5, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleElement) {
  ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  pool.parallel_for(1, [&](int64_t b, int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, NestedCallsFallBackToSerial) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.parallel_for(8, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Reentrant use of the global pool must not deadlock.
      parallel_for(10, [&](int64_t ib, int64_t ie) { total += ie - ib; });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, GlobalPoolWorks) {
  std::atomic<int64_t> sum{0};
  parallel_for(12345, [&](int64_t b, int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 12345);
}

// Each parallel_for waits on its own chunks only: caller B must return while
// caller A's pool chunk is still parked, instead of waiting on a pool-wide
// outstanding count that includes A's chunk.
TEST(ThreadPool, ConcurrentCallerDoesNotWaitForAnotherCallersChunk) {
  ThreadPool pool(2);
  std::promise<void> a_parked;
  std::promise<void> release_a;
  std::future<void> a_parked_future = a_parked.get_future();
  std::shared_future<void> release = release_a.get_future().share();
  std::thread caller_a([&] {
    pool.parallel_for(2, [&](int64_t begin, int64_t) {
      if (begin == 1) {
        a_parked.set_value();
        release.wait();
      }
    });
  });
  a_parked_future.wait();

  auto caller_b = std::async(std::launch::async, [&] {
    std::atomic<int64_t> sum{0};
    pool.parallel_for(2, [&](int64_t b, int64_t e) { sum += e - b; });
    return sum.load();
  });
  const bool b_returned =
      caller_b.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release_a.set_value();
  caller_a.join();
  ASSERT_TRUE(b_returned) << "caller B waited for caller A's parked chunk";
  EXPECT_EQ(caller_b.get(), 2);
}

// A chunk that throws on a worker must reach the caller, not terminate the
// process, and the pool must stay usable afterwards.
TEST(ThreadPool, WorkerExceptionIsRethrownInCaller) {
  ThreadPool pool(3);
  std::atomic<int64_t> covered{0};
  try {
    pool.parallel_for(4, [&](int64_t b, int64_t e) {
      if (b > 0) throw std::runtime_error("worker chunk failed");
      covered += e - b;
    });
    FAIL() << "expected the worker chunk's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker chunk failed");
  }
  EXPECT_EQ(covered.load(), 1);

  std::atomic<int64_t> sum{0};
  pool.parallel_for(100, [&](int64_t b, int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, ManySequentialDispatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    pool.parallel_for(37, [&](int64_t b, int64_t e) { sum += e - b; });
    ASSERT_EQ(sum.load(), 37);
  }
}

}  // namespace
}  // namespace rhw
