#include "algo/dijkstra.h"

#include <gtest/gtest.h>

#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::RandomPairs;
using testing_support::SmallNetwork;

graph::Graph Line() {
  graph::GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddNode({static_cast<double>(i), 0});
  for (int i = 0; i < 4; ++i) b.AddBidirectional(i, i + 1, i + 1);
  return std::move(b).Build().value();
}

TEST(DijkstraTest, LineGraphDistances) {
  graph::Graph g = Line();
  SearchWorkspace ws;
  DijkstraAll(g, 0, ws);
  EXPECT_EQ(ws.DistTo(0), 0u);
  EXPECT_EQ(ws.DistTo(1), 1u);
  EXPECT_EQ(ws.DistTo(2), 3u);
  EXPECT_EQ(ws.DistTo(3), 6u);
  EXPECT_EQ(ws.DistTo(4), 10u);
}

TEST(DijkstraTest, ParentChainReconstructsPath) {
  graph::Graph g = Line();
  Path p = DijkstraPath(g, 0, 4);
  ASSERT_TRUE(p.found());
  EXPECT_EQ(p.dist, 10u);
  EXPECT_EQ(p.nodes, (std::vector<graph::NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(PathLength(g, p.nodes), 10u);
}

TEST(DijkstraTest, EarlyStopSettlesFewerNodes) {
  graph::Graph g = SmallNetwork();
  SearchWorkspace full, targeted;
  DijkstraAll(g, 0, full);
  DijkstraSearch(g, 0, 1, AllEdges{}, targeted);
  EXPECT_LE(targeted.settled(), full.settled());
}

TEST(DijkstraTest, UnreachableWithoutEdges) {
  graph::GraphBuilder b;
  b.AddNode({0, 0});
  b.AddNode({1, 1});
  b.AddNode({2, 2});
  b.AddBidirectional(0, 1, 1);
  graph::Graph g = std::move(b).Build().value();
  Path p = DijkstraPath(g, 0, 2);
  EXPECT_FALSE(p.found());
  EXPECT_EQ(p.dist, graph::kInfDist);
}

// A client's partial graph may not hold the query source at all (its
// region never arrived). The search then reaches nothing, and a fresh
// workspace sized to the graph is never indexed by the source.
TEST(DijkstraTest, SourceOutsideTheGraphReachesNothing) {
  graph::Graph g = Line();
  SearchWorkspace ws;
  DijkstraSearch(g, 9, 2, AllEdges{}, ws);
  EXPECT_EQ(ws.DistTo(2), graph::kInfDist);
  EXPECT_EQ(ws.DistTo(9), graph::kInfDist);
  EXPECT_EQ(ws.settled(), 0u);
}

TEST(DijkstraTest, EdgeFilterBlocksPath) {
  graph::Graph g = Line();
  // Block every arc into node 2: path 0 -> 4 must fail.
  SearchWorkspace ws;
  DijkstraSearch(
      g, 0, 4,
      [](graph::NodeId, const graph::Graph::Arc& arc) {
        return arc.to != 2;
      },
      ws);
  EXPECT_EQ(ws.DistTo(4), graph::kInfDist);
}

TEST(DijkstraTest, PathLengthDetectsMissingHop) {
  graph::Graph g = Line();
  EXPECT_EQ(PathLength(g, {0, 2}), graph::kInfDist);  // no direct edge
  EXPECT_EQ(PathLength(g, {}), graph::kInfDist);
}

TEST(DijkstraTest, SelfQueryIsZero) {
  graph::Graph g = Line();
  Path p = DijkstraPath(g, 2, 2);
  EXPECT_TRUE(p.found());
  EXPECT_EQ(p.dist, 0u);
  EXPECT_EQ(p.nodes, (std::vector<graph::NodeId>{2}));
}

/// Property sweep: distances obey the triangle property along edges
/// (dist[v] + w(v,u) >= dist[u]) and every parent edge is tight.
class DijkstraPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraPropertyTest, TreeIsConsistent) {
  graph::Graph g = SmallNetwork(300, 480, GetParam());
  SearchWorkspace tree;
  DijkstraAll(g, 0, tree);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_NE(tree.DistTo(v), graph::kInfDist);
    for (const auto& arc : g.OutArcs(v)) {
      EXPECT_LE(tree.DistTo(arc.to), tree.DistTo(v) + arc.weight);
    }
    if (v != 0) {
      const graph::NodeId p = tree.ParentOf(v);
      ASSERT_NE(p, graph::kInvalidNode);
      // Parent edge is tight.
      graph::Dist w = graph::kInfDist;
      for (const auto& arc : g.OutArcs(p)) {
        if (arc.to == v) w = std::min<graph::Dist>(w, arc.weight);
      }
      EXPECT_EQ(tree.DistTo(v), tree.DistTo(p) + w);
    }
  }
}

TEST_P(DijkstraPropertyTest, TargetedMatchesFull) {
  graph::Graph g = SmallNetwork(250, 400, GetParam() + 1000);
  SearchWorkspace full;
  DijkstraAll(g, 5, full);
  for (auto [s, t] : RandomPairs(g, 10, GetParam())) {
    (void)s;
    Path p = DijkstraPath(g, 5, t);
    EXPECT_EQ(p.dist, full.DistTo(t));
    EXPECT_EQ(PathLength(g, p.nodes), p.dist);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace airindex::algo
