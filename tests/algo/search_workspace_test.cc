#include "algo/search_workspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/astar.h"
#include "algo/d_ary_heap.h"
#include "algo/dijkstra.h"
#include "common/rng.h"
#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::RandomPairs;
using testing_support::SmallNetwork;

TEST(DAryHeapTest, PopsSortedUnderTotalOrder) {
  Rng rng(7);
  DAryHeap<std::pair<graph::Dist, graph::NodeId>> heap;
  std::vector<std::pair<graph::Dist, graph::NodeId>> items;
  for (graph::NodeId i = 0; i < 2000; ++i) {
    items.emplace_back(rng.NextBounded(50), i);  // many tied distances
  }
  for (const auto& it : items) heap.push(it);
  std::sort(items.begin(), items.end());
  for (const auto& expected : items) {
    ASSERT_FALSE(heap.empty());
    EXPECT_EQ(heap.top(), expected);
    heap.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(DAryHeapTest, InterleavedPushPopMatchesReference) {
  Rng rng(11);
  DAryHeap<uint64_t> heap;
  std::vector<uint64_t> reference;
  for (int round = 0; round < 3000; ++round) {
    if (reference.empty() || rng.NextBounded(3) != 0) {
      const uint64_t v = rng.Next();
      heap.push(v);
      reference.push_back(v);
    } else {
      const auto min_it = std::min_element(reference.begin(),
                                           reference.end());
      ASSERT_EQ(heap.top(), *min_it);
      heap.pop();
      reference.erase(min_it);
    }
  }
}

// A workspace reused across searches must produce exactly what a fresh
// one does: same dist, same parent, same settled count.
TEST(SearchWorkspaceTest, ReusedMatchesFreshBitExactly) {
  graph::Graph g = SmallNetwork(500, 800, 42);
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(g, 25, 91)) {
    SearchWorkspace fresh;
    DijkstraSearch(g, s, t, AllEdges{}, fresh);
    DijkstraSearch(g, s, t, AllEdges{}, ws);
    EXPECT_EQ(fresh.settled(), ws.settled());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(fresh.DistTo(v), ws.DistTo(v)) << "node " << v;
      ASSERT_EQ(fresh.ParentOf(v), ws.ParentOf(v)) << "node " << v;
    }
  }
}

// Reuse across many searches — including searches over graphs of different
// sizes — must never leak state between runs.
TEST(SearchWorkspaceTest, ReuseAcrossGraphSizesIsClean) {
  graph::Graph big = SmallNetwork(600, 960, 1);
  graph::Graph small = SmallNetwork(120, 200, 2);
  SearchWorkspace ws;
  for (int round = 0; round < 4; ++round) {
    const graph::Graph& g = (round % 2 == 0) ? big : small;
    for (auto [s, t] : RandomPairs(g, 8, 100 + round)) {
      DijkstraSearch(g, s, t, AllEdges{}, ws);
      SearchWorkspace fresh;
      DijkstraSearch(g, s, t, AllEdges{}, fresh);
      EXPECT_EQ(fresh.settled(), ws.settled());
      EXPECT_EQ(fresh.DistTo(t), ws.DistTo(t));
      // Nodes beyond the small graph must read as unreached even though
      // the arrays still hold the big graph's stale entries.
      if (g.num_nodes() < big.num_nodes()) {
        EXPECT_EQ(ws.DistTo(static_cast<graph::NodeId>(
                      big.num_nodes() - 1)),
                  graph::kInfDist);
      }
    }
  }
}

TEST(SearchWorkspaceTest, AStarInWorkspaceStaysExact) {
  graph::Graph g = SmallNetwork(300, 480, 9);
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(g, 15, 66)) {
    Path dj = DijkstraPath(g, s, t);
    size_t settled = 0;
    Path astar = AStarPath(
        g, s, t, [](graph::NodeId) { return 0; }, ws, &settled);
    EXPECT_EQ(dj.dist, astar.dist);
    EXPECT_EQ(settled, ws.settled());
    EXPECT_EQ(PathLength(g, astar.nodes), astar.dist);
  }
}

}  // namespace
}  // namespace airindex::algo
