#include "graph/graph.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/pendant_forest.h"
#include "testing/test_graphs.h"

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

/// g's transpose as Build makes it from the reversed arcs.
Graph BuildReversed(const Graph& g) {
  std::vector<EdgeTriplet> reversed;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Graph::Arc& arc : g.OutArcs(v)) {
      reversed.push_back({arc.to, v, arc.weight});
    }
  }
  return Graph::Build(g.coords(), reversed).value();
}

TEST(GraphTest, ReversedIsBuildOfTheReversedArcs) {
  // Parallel arcs (0 -> 1 twice, in input order) and one-way arcs.
  const Graph g =
      Graph::Build({{0, 0}, {1, 0}, {2, 0}, {3, 0}},
                   {{0, 1, 4}, {2, 1, 1}, {0, 1, 3}, {1, 0, 2}, {3, 1, 5},
                    {0, 2, 6}, {2, 3, 7}, {3, 0, 8}})
          .value();
  const Graph rev = g.Reversed();
  EXPECT_EQ(Fingerprint(rev), Fingerprint(BuildReversed(g)));
  ASSERT_EQ(rev.OutDegree(1), 4u);
  EXPECT_EQ(rev.OutArcs(1)[0].weight, 4u);
  EXPECT_EQ(rev.OutArcs(1)[1].weight, 3u);
  EXPECT_EQ(rev.OutArcs(1)[2].to, 2u);
  EXPECT_EQ(rev.OutArcs(1)[3].to, 3u);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph h = testing_support::RandomTreeHeavyGraph(seed).g;
    EXPECT_EQ(Fingerprint(h.Reversed()), Fingerprint(BuildReversed(h)))
        << "seed " << seed;
  }
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

TEST(ChainKernelTest, ContractsChainsLoopsAndCycles) {
  // Hubs 0 and 3 are joined by an arc of 7 and the chain 0 - 1 - 2 - 3
  // (parallel arcs 0 -> 1 of 5 and 2, and 1 -> 2 one way); 3 carries the
  // loop 3 - 4 - 5 - 3. The zero-weight arc 6 - 7 makes the degree-2 nodes
  // 6 and 7 kernel nodes, and the ring 8 - 9 - 10 keeps 8 as one.
  GraphBuilder b;
  for (int i = 0; i < 11; ++i) b.AddNode({static_cast<double>(i), 0.0});
  b.AddArc(0, 1, 5);
  b.AddArc(0, 1, 2);
  b.AddArc(1, 0, 3);
  b.AddArc(1, 2, 4);
  b.AddBidirectional(2, 3, 1);
  b.AddBidirectional(0, 3, 7);
  b.AddBidirectional(3, 4, 1);
  b.AddBidirectional(4, 5, 2);
  b.AddBidirectional(5, 3, 1);
  b.AddBidirectional(0, 6, 1);
  b.AddBidirectional(6, 7, 0);
  b.AddBidirectional(7, 3, 1);
  b.AddBidirectional(8, 9, 1);
  b.AddBidirectional(9, 10, 1);
  b.AddBidirectional(10, 8, 1);
  const Graph g = std::move(b).Build().value();
  const ChainKernel k = ContractChains(g);

  EXPECT_EQ(k.kernel_nodes, (std::vector<NodeId>{0, 3, 6, 7, 8}));
  EXPECT_EQ(k.kernel_id[3], 1u);
  EXPECT_EQ(k.kernel_id[1], kInvalidNode);
  ASSERT_EQ(k.chains.size(), 3u);

  // The chain 0 - 1 - 2 - 3, traced from 0.
  const uint32_t a = k.chain_of[1];
  EXPECT_EQ(k.chain_of[2], a);
  EXPECT_EQ(k.position[1], 1u);
  EXPECT_EQ(k.position[2], 2u);
  EXPECT_EQ(k.chains[a].interior, 2u);
  EXPECT_EQ(k.End(a, 0), k.kernel_id[0]);
  EXPECT_EQ(k.End(a, 1), k.kernel_id[3]);
  const uint32_t begin = k.chains[a].begin;
  const Dist inf = kInfDist;
  auto slots = [&](const std::vector<Dist>& v) {
    return std::vector<Dist>(v.begin() + begin, v.begin() + begin + 4);
  };
  EXPECT_EQ(slots(k.from_end[0]), (std::vector<Dist>{0, 2, 6, 7}));
  EXPECT_EQ(slots(k.from_end[1]), (std::vector<Dist>{inf, inf, 1, 0}));
  EXPECT_EQ(k.step[0][begin], 2u);  // the lighter parallel arc
  EXPECT_EQ(k.step[1][begin + 1], inf);

  // The loop on 3 and the ring's chain from 8 back to itself.
  const uint32_t loop = k.chain_of[4];
  EXPECT_EQ(k.End(loop, 0), k.kernel_id[3]);
  EXPECT_EQ(k.End(loop, 1), k.kernel_id[3]);
  const uint32_t ring = k.chain_of[9];
  EXPECT_EQ(k.End(ring, 0), k.kernel_id[8]);
  EXPECT_EQ(k.End(ring, 1), k.kernel_id[8]);

  // Eight arcs between kernel nodes (0 - 3, 0 - 6, 6 - 7 and 7 - 3, both
  // ways) and the chain from 0 to 3, which runs one way only; a loop gives
  // no arc.
  EXPECT_EQ(k.num_arcs(), 9u);
  bool chain_arc = false;
  for (const ChainKernel::Arc& arc : k.OutArcs(k.kernel_id[0])) {
    if (arc.chain != ChainKernel::kNoChain) {
      chain_arc = true;
      EXPECT_EQ(arc.chain, a);
      EXPECT_EQ(arc.side, 0u);
      EXPECT_EQ(arc.to, k.kernel_id[3]);
      EXPECT_EQ(arc.weight, 7u);
    }
  }
  EXPECT_TRUE(chain_arc);
}

TEST(PendantForestTest, TwoCoreGraphHasNoPendantNodes) {
  const PendantForest f = DecomposePendantForest(Diamond());
  EXPECT_EQ(f.core_nodes.size(), 4u);
  EXPECT_TRUE(f.peel_order.empty());
  EXPECT_EQ(Fingerprint(f.core), Fingerprint(Diamond()));
}

}  // namespace
}  // namespace airindex::graph
