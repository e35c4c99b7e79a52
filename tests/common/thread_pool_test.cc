#include "common/thread_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <utility>
#include <vector>

namespace airindex {
namespace {

// A thread count of 0 means one per CPU the process may run on, so a pin
// (taskset, a cpuset) narrows it. The test narrows its own affinity mask
// to one CPU, then to two where the mask has two, and restores the mask
// before it checks anything.
TEST(ResolveThreadsTest, CountsTheCpusInTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  const int available = CPU_COUNT(&saved);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < 2; ++c) {
    if (CPU_ISSET(c, &saved)) cpus.push_back(c);
  }
  ASSERT_FALSE(cpus.empty());
  auto resolve_pinned = [&](size_t count) {
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    for (size_t i = 0; i < count; ++i) CPU_SET(cpus[i], &narrow);
    EXPECT_EQ(sched_setaffinity(0, sizeof(narrow), &narrow), 0);
    const unsigned threads = ResolveThreads(0);
    const unsigned workers = ResolveWorkers(100, 0);
    EXPECT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    return std::pair(threads, workers);
  };
  EXPECT_EQ(resolve_pinned(1), std::pair(1u, 1u));
  if (cpus.size() == 2) {
    EXPECT_EQ(resolve_pinned(2), std::pair(2u, 2u));
  }
  EXPECT_EQ(ResolveThreads(0), static_cast<unsigned>(available));
  EXPECT_EQ(ResolveThreads(3), 3u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  ParallelForWorker(n, [&](unsigned, size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyRangeIsNoOp) {
  std::atomic<int> calls{0};
  ParallelForWorker(0, [&](unsigned, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelForWorker(
      5, [&](unsigned, size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  // With one thread the order is sequential.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, SumMatchesSequential) {
  const size_t n = 1000;
  std::atomic<long long> sum{0};
  ParallelForWorker(n, [&](unsigned, size_t i) {
    sum.fetch_add(static_cast<long long>(i));
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(n * (n - 1) / 2));
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  ParallelForWorker(3, [&](unsigned, size_t i) { hits[i].fetch_add(1); }, 16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace airindex
