#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace airindex {
namespace {

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
