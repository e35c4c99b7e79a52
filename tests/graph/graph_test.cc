#include "graph/graph.h"

#include <gtest/gtest.h>

namespace airindex::graph {
namespace {

Graph Diamond() {
  // 0 -> 1 -> 3, 0 -> 2 -> 3 (bidirectional).
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) {
    b.AddNode({static_cast<double>(i), 0.0});
  }
  b.AddBidirectional(0, 1, 1);
  b.AddBidirectional(1, 3, 2);
  b.AddBidirectional(0, 2, 2);
  b.AddBidirectional(2, 3, 2);
  return std::move(b).Build().value();
}

TEST(GraphTest, BuildCountsNodesAndArcs) {
  Graph g = Diamond();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_arcs(), 8u);
}

TEST(GraphTest, AdjacencySortedByTarget) {
  Graph g = Diamond();
  auto arcs = g.OutArcs(0);
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].to, 1u);
  EXPECT_EQ(arcs[1].to, 2u);
}

TEST(GraphTest, OutDegree) {
  Graph g = Diamond();
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.OutDegree(3), 2u);
}

TEST(GraphTest, RejectsSelfLoop) {
  std::vector<Point> coords = {{0, 0}, {1, 1}};
  auto res = Graph::Build(coords, {{0, 0, 1}});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, RejectsOutOfRangeEndpoint) {
  std::vector<Point> coords = {{0, 0}, {1, 1}};
  auto res = Graph::Build(coords, {{0, 5, 1}});
  EXPECT_FALSE(res.ok());
}

TEST(GraphTest, ReversedSwapsDirection) {
  GraphBuilder b;
  b.AddNode({0, 0});
  b.AddNode({1, 0});
  b.AddArc(0, 1, 7);
  Graph g = std::move(b).Build().value();
  Graph rev = g.Reversed();
  EXPECT_EQ(rev.OutDegree(0), 0u);
  ASSERT_EQ(rev.OutDegree(1), 1u);
  EXPECT_EQ(rev.OutArcs(1)[0].to, 0u);
  EXPECT_EQ(rev.OutArcs(1)[0].weight, 7u);
}

TEST(GraphTest, StronglyConnectedDiamond) {
  EXPECT_TRUE(Diamond().IsStronglyConnected());
}

TEST(GraphTest, OneWayPairIsNotStronglyConnected) {
  GraphBuilder b;
  b.AddNode({0, 0});
  b.AddNode({1, 0});
  b.AddArc(0, 1, 1);
  Graph g = std::move(b).Build().value();
  EXPECT_FALSE(g.IsStronglyConnected());
}

TEST(GraphTest, MemoryBytesGrowsWithSize) {
  Graph small = Diamond();
  GraphBuilder b;
  for (int i = 0; i < 100; ++i) b.AddNode({static_cast<double>(i), 0});
  for (int i = 0; i + 1 < 100; ++i) {
    b.AddBidirectional(i, i + 1, 1);
  }
  Graph big = std::move(b).Build().value();
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(GraphTest, CoordsPreserved) {
  GraphBuilder b;
  NodeId a = b.AddNode({3.5, -2.25});
  b.AddNode({0, 0});
  b.AddBidirectional(0, 1, 1);
  Graph g = std::move(b).Build().value();
  EXPECT_DOUBLE_EQ(g.Coord(a).x, 3.5);
  EXPECT_DOUBLE_EQ(g.Coord(a).y, -2.25);
}

TEST(GraphTest, FingerprintFollowsContentNotAddress) {
  const Graph g = Diamond();
  const Graph copy = g;
  EXPECT_EQ(Fingerprint(g), Fingerprint(copy));
  EXPECT_EQ(Fingerprint(g), Fingerprint(Diamond()));

  // Same counts, one field changed each: a coordinate, an arc's target
  // (the same degrees, so equal offsets), and an arc's weight.
  std::vector<Point> coords = g.coords();
  coords[3].y = 1e-9;
  std::vector<EdgeTriplet> edges;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Graph::Arc& arc : g.OutArcs(v)) {
      edges.push_back({v, arc.to, arc.weight});
    }
  }
  EXPECT_NE(Fingerprint(g), Fingerprint(Graph::Build(coords, edges).value()));
  std::vector<EdgeTriplet> retargeted = edges;
  retargeted.front().to = 3;  // 0 -> 1 becomes 0 -> 3
  EXPECT_NE(Fingerprint(g),
            Fingerprint(Graph::Build(g.coords(), retargeted).value()));
  std::vector<EdgeTriplet> reweighted = edges;
  reweighted.front().weight += 1;
  EXPECT_NE(Fingerprint(g),
            Fingerprint(Graph::Build(g.coords(), reweighted).value()));
}

}  // namespace
}  // namespace airindex::graph
