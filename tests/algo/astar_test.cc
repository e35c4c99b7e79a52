#include "algo/astar.h"

#include <gtest/gtest.h>

#include <cmath>

#include "algo/dijkstra.h"
#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::RandomPairs;
using testing_support::SmallNetwork;

TEST(AStarTest, ZeroBoundEqualsDijkstra) {
  graph::Graph g = SmallNetwork();
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(g, 20, 77)) {
    Path astar = AStarPath(g, s, t, [](graph::NodeId) { return 0; }, ws);
    Path dijkstra = DijkstraPath(g, s, t);
    EXPECT_EQ(astar.dist, dijkstra.dist);
  }
}

// See DijkstraTest.SourceOutsideTheGraphReachesNothing.
TEST(AStarTest, SourceOutsideTheGraphReachesNothing) {
  graph::Graph g = SmallNetwork();
  const auto outside = static_cast<graph::NodeId>(g.num_nodes() + 3);
  SearchWorkspace ws;
  AStarSearch(g, outside, 0, [](graph::NodeId) { return 0; }, ws);
  EXPECT_EQ(ws.DistTo(0), graph::kInfDist);
  EXPECT_EQ(ws.settled(), 0u);
}

TEST(AStarTest, ExactBoundSettlesOnlyPathNodes) {
  graph::Graph g = SmallNetwork();
  const graph::NodeId s = 3, t = 200;
  // Perfect heuristic: true remaining distance.
  graph::Graph rev = g.Reversed();
  SearchWorkspace to_t;
  DijkstraAll(rev, t, to_t);
  SearchWorkspace ws;
  size_t settled_exact = 0;
  Path p = AStarPath(
      g, s, t, [&](graph::NodeId v) { return to_t.DistTo(v); }, ws,
      &settled_exact);
  size_t settled_zero = 0;
  AStarPath(
      g, s, t, [](graph::NodeId) { return 0; }, ws, &settled_zero);
  ASSERT_TRUE(p.found());
  EXPECT_LT(settled_exact, settled_zero);
}

TEST(AStarTest, AdmissibleEuclideanBoundRemainsExact) {
  graph::Graph g = SmallNetwork();
  // Weights are rounded Euclidean lengths, so floor(euclid) - 1 is
  // admissible.
  auto euclid_lb = [&](graph::NodeId v, graph::NodeId t) {
    const auto& a = g.Coord(v);
    const auto& b = g.Coord(t);
    const double d = std::hypot(a.x - b.x, a.y - b.y);
    return static_cast<graph::Dist>(d > 2 ? d - 2 : 0);
  };
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(g, 20, 78)) {
    Path astar = AStarPath(
        g, s, t, [&](graph::NodeId v) { return euclid_lb(v, t); }, ws);
    Path dijkstra = DijkstraPath(g, s, t);
    EXPECT_EQ(astar.dist, dijkstra.dist) << s << "->" << t;
  }
}

TEST(AStarTest, PathEdgesExist) {
  graph::Graph g = SmallNetwork();
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(g, 10, 79)) {
    Path p = AStarPath(g, s, t, [](graph::NodeId) { return 0; }, ws);
    ASSERT_TRUE(p.found());
    EXPECT_EQ(PathLength(g, p.nodes), p.dist);
  }
}

}  // namespace
}  // namespace airindex::algo
