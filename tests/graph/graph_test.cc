#include "graph/graph.h"

#include <gtest/gtest.h>

#include "graph/pendant_forest.h"

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

TEST(GraphTest, CachedFingerprintTravelsWithCopiesNotMovedFromGraphs) {
  const uint64_t empty = Fingerprint(Graph());
  Graph g = Diamond();
  const uint64_t diamond = Fingerprint(g);  // computed and cached here
  Graph copy = g;
  EXPECT_EQ(Fingerprint(copy), diamond);
  Graph assigned;
  assigned = g;
  EXPECT_EQ(Fingerprint(assigned), diamond);

  Graph moved = std::move(g);
  EXPECT_EQ(Fingerprint(moved), diamond);
  EXPECT_EQ(g.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(Fingerprint(g), empty);
  Graph move_assigned;
  move_assigned = std::move(copy);
  EXPECT_EQ(Fingerprint(move_assigned), diamond);
  EXPECT_EQ(Fingerprint(copy), empty);  // NOLINT(bugprone-use-after-move)

  // A cached value never outlives the content it was computed from: an
  // assignment replaces both.
  assigned = Graph();
  EXPECT_EQ(Fingerprint(assigned), empty);
}

TEST(PendantForestTest, SplitsCoreAndTrees) {
  // A triangle 0 - 1 - 2 with the tree 0 - 3 - {4, 5} (3 -> 5 one-way) and
  // the leaf 6 on 2 (two parallel arcs 2 -> 6, one arc back); a separate
  // path 7 - 8 - 9 (8 -> 9 one-way) that is a tree, and an isolated 10.
  GraphBuilder b;
  for (int i = 0; i < 11; ++i) b.AddNode({static_cast<double>(i), 0.0});
  b.AddBidirectional(0, 1, 1);
  b.AddBidirectional(1, 2, 1);
  b.AddBidirectional(2, 0, 1);
  b.AddBidirectional(0, 3, 2);
  b.AddBidirectional(3, 4, 3);
  b.AddArc(3, 5, 4);
  b.AddArc(2, 6, 5);
  b.AddArc(2, 6, 2);
  b.AddArc(6, 2, 1);
  b.AddBidirectional(7, 8, 1);
  b.AddArc(8, 9, 7);
  const Graph g = std::move(b).Build().value();
  const PendantForest f = DecomposePendantForest(g);

  // The tree component keeps 8, its last node, as the root of 7 and 9.
  EXPECT_EQ(f.core_nodes, (std::vector<NodeId>{0, 1, 2, 8, 10}));
  EXPECT_EQ(f.core_id[8], 3u);
  EXPECT_EQ(f.core_id[3], kInvalidNode);
  EXPECT_TRUE(f.IsCore(10));
  EXPECT_FALSE(f.IsCore(6));
  EXPECT_EQ(f.core.num_nodes(), 5u);
  EXPECT_EQ(f.core.num_arcs(), 6u);  // the triangle's, over core ids
  EXPECT_EQ(f.core.OutArcs(2)[0].to, 0u);

  const NodeId x = kInvalidNode;
  EXPECT_EQ(f.root, (std::vector<NodeId>{0, 1, 2, 0, 0, 0, 2, 8, 8, 8, 10}));
  EXPECT_EQ(f.parent, (std::vector<NodeId>{x, x, x, 0, 3, 3, 2, 8, x, 8, x}));
  const Dist inf = kInfDist;
  EXPECT_EQ(f.down, (std::vector<Dist>{0, 0, 0, 2, 5, 6, 2, 1, 0, 7, 0}));
  EXPECT_EQ(f.up, (std::vector<Dist>{0, 0, 0, 2, 5, inf, 1, 1, 0, inf, 0}));
  EXPECT_EQ(f.down_step[5], 4u);
  EXPECT_EQ(f.up_step[5], inf);
  EXPECT_EQ(f.down_step[6], 2u);  // the lighter parallel arc

  // Leaves first: every node before its parent.
  EXPECT_EQ(f.peel_order, (std::vector<NodeId>{4, 5, 6, 7, 9, 3}));
  auto children = [&](NodeId v) {
    return std::vector<NodeId>(f.Children(v).begin(), f.Children(v).end());
  };
  EXPECT_EQ(children(0), (std::vector<NodeId>{3}));
  EXPECT_EQ(children(3), (std::vector<NodeId>{4, 5}));
  EXPECT_EQ(children(8), (std::vector<NodeId>{7, 9}));
  EXPECT_TRUE(children(1).empty());
}

TEST(PendantForestTest, TwoCoreGraphHasNoPendantNodes) {
  const PendantForest f = DecomposePendantForest(Diamond());
  EXPECT_EQ(f.core_nodes.size(), 4u);
  EXPECT_TRUE(f.peel_order.empty());
  EXPECT_EQ(Fingerprint(f.core), Fingerprint(Diamond()));
}

}  // namespace
}  // namespace airindex::graph
