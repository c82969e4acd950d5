#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace mdw {
namespace {

TEST(ThreadPoolTest, ResolveWorkersZeroMeansHardware) {
  EXPECT_GE(ThreadPool::ResolveWorkers(0), 1);
  EXPECT_EQ(ThreadPool::ResolveWorkers(1), 1);
  EXPECT_EQ(ThreadPool::ResolveWorkers(7), 7);
}

TEST(ThreadPoolTest, ResolveWorkersZeroCountsTheAffinityMask) {
  // Zero means the CPUs this thread may run on, not the machine's: pin
  // the test thread to one of its CPUs, resolve, then restore the mask.
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(::sched_getaffinity(0, sizeof original, &original), 0);
  EXPECT_EQ(ThreadPool::ResolveWorkers(0), CPU_COUNT(&original));
  int cpu = 0;
  while (!CPU_ISSET(cpu, &original)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(::sched_setaffinity(0, sizeof one, &one), 0);
  const int pinned = ThreadPool::ResolveWorkers(0);
  ASSERT_EQ(::sched_setaffinity(0, sizeof original, &original), 0);
  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(ThreadPool::ResolveWorkers(0), CPU_COUNT(&original));
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  const ThreadPool pool(4);
  constexpr std::int64_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](std::int64_t i) {
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeCounts) {
  const ThreadPool pool(2);
  std::atomic<std::int64_t> count{0};
  pool.ParallelFor(0, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  // More indices than workers.
  pool.ParallelFor(97, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 98);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  const ThreadPool pool(2);
  std::atomic<std::int64_t> count{0};
  pool.ParallelFor(4, [&](std::int64_t) {
    pool.ParallelFor(100, [&](std::int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPoolTest, SequentialParallelForsReuseTheWorkers) {
  const ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](std::int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50 * (64 * 63 / 2));
}

TEST(ThreadPoolTest, ParallelForQueuesVisitsEveryItemExactlyOnce) {
  const ThreadPool pool(4);
  const std::vector<std::int64_t> sizes = {1'000, 0, 37, 2'000, 1};
  std::int64_t total = 0;
  for (const auto s : sizes) total += s;
  std::vector<std::vector<std::atomic<int>>> visits;
  for (const auto s : sizes) {
    visits.emplace_back(static_cast<std::size_t>(s));
  }
  pool.ParallelForQueues(sizes, [&](int q, std::int64_t i) {
    visits[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)]
        .fetch_add(1);
  });
  for (std::size_t q = 0; q < visits.size(); ++q) {
    for (std::size_t i = 0; i < visits[q].size(); ++i) {
      ASSERT_EQ(visits[q][i].load(), 1) << "queue " << q << " item " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForQueuesHandlesEmptyAndSingleItem) {
  const ThreadPool pool(2);
  std::atomic<std::int64_t> count{0};
  pool.ParallelForQueues({}, [&](int, std::int64_t) { count.fetch_add(1); });
  pool.ParallelForQueues({0, 0, 0},
                         [&](int, std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelForQueues({0, 1, 0},
                         [&](int q, std::int64_t) { count.fetch_add(q); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForQueuesStealsAcrossSkewedQueues) {
  // One queue holds nearly all the work; every item must still execute
  // exactly once with 4 lanes draining it cooperatively.
  const ThreadPool pool(3);
  const std::vector<std::int64_t> sizes = {10'000, 1, 1, 1};
  std::atomic<std::int64_t> count{0};
  pool.ParallelForQueues(sizes,
                         [&](int, std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10'003);
}

TEST(ThreadPoolTest, NestedParallelForQueuesRunsInlineWithoutDeadlock) {
  const ThreadPool pool(2);
  std::atomic<std::int64_t> count{0};
  pool.ParallelFor(4, [&](std::int64_t) {
    pool.ParallelForQueues({50, 50},
                           [&](int, std::int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  const ThreadPool pool(4);
  std::atomic<std::int64_t> count{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(1'000, [&](std::int64_t) { count.fetch_add(1); });
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(count.load(), 4'000);
}

}  // namespace
}  // namespace mdw
