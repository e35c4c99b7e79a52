#include "core/border_precompute.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/dijkstra.h"
#include "graph/catalog.h"
#include "graph/graph.h"
#include "partition/kd_tree.h"
#include "partition/partitioning.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::AddBoth;
using testing_support::FromArcs;
using testing_support::SmallNetwork;

struct Built {
  graph::Graph g;
  BorderPrecompute pre;
};

Built Make(uint32_t nodes, uint32_t edges, uint64_t seed, uint32_t regions) {
  graph::Graph g = SmallNetwork(nodes, edges, seed);
  auto kd = partition::KdTreePartitioner::Build(g, regions).value();
  auto pre = ComputeBorderPrecompute(g, kd.Partition(g)).value();
  return {std::move(g), std::move(pre)};
}

/// Region membership of (i, j)'s needed-region set, read from its mask.
std::vector<bool> NeededSet(const BorderPrecompute& pre, graph::RegionId i,
                            graph::RegionId j) {
  std::vector<uint64_t> mask(pre.words_per_pair());
  pre.NeededRegionsMask(i, j, mask.data());
  std::vector<bool> needed(pre.num_regions);
  for (graph::RegionId k = 0; k < pre.num_regions; ++k) {
    needed[k] = (mask[k / 64] >> (k % 64)) & 1;
  }
  return needed;
}

// The four arrays as the straightforward per-target parent walk computes
// them: for every border source, one full Dijkstra, then a walk from each
// reached target back up to the source, or-ing in the region of and
// marking cross-border every node on the way. (A search stopped once every
// border target settles leaves them the same parents: the kernel's pop
// order is a pure function of the graph.) This is the O(|B|^2 * path
// length) definition ComputeBorderPrecompute's settle-order sweeps must
// reproduce exactly.
struct ParentWalkReference {
  std::vector<graph::Dist> min_rr;
  std::vector<graph::Dist> max_rr;
  std::vector<uint64_t> traversed;
  std::vector<uint8_t> cross_border;
};

ParentWalkReference ComputeByParentWalk(const graph::Graph& g,
                                        const BorderPrecompute& pre) {
  const uint32_t R = pre.num_regions;
  const size_t words = pre.words_per_pair();
  const auto& region = pre.part.node_region;
  const std::vector<graph::NodeId>& B = pre.borders.border_nodes;
  ParentWalkReference ref;
  ref.min_rr.assign(static_cast<size_t>(R) * R, graph::kInfDist);
  ref.max_rr.assign(static_cast<size_t>(R) * R, 0);
  ref.traversed.assign(static_cast<size_t>(R) * R * words, 0);
  ref.cross_border.assign(g.num_nodes(), 0);
  algo::SearchWorkspace tree;
  for (graph::NodeId b : B) {
    algo::DijkstraAll(g, b, tree);
    for (graph::NodeId b2 : B) {
      const graph::Dist d = tree.DistTo(b2);
      if (d == graph::kInfDist) continue;
      const size_t cell = static_cast<size_t>(region[b]) * R + region[b2];
      ref.min_rr[cell] = std::min(ref.min_rr[cell], d);
      ref.max_rr[cell] = std::max(ref.max_rr[cell], d);
      for (graph::NodeId v = b2; v != graph::kInvalidNode;
           v = tree.ParentOf(v)) {
        ref.traversed[cell * words + region[v] / 64] |=
            uint64_t{1} << (region[v] % 64);
        ref.cross_border[v] = 1;
        if (v == b) break;
      }
    }
  }
  return ref;
}

void ExpectMatchesParentWalk(const graph::Graph& g,
                             const BorderPrecompute& pre) {
  const ParentWalkReference ref = ComputeByParentWalk(g, pre);
  EXPECT_EQ(pre.min_rr, ref.min_rr);
  EXPECT_EQ(pre.max_rr, ref.max_rr);
  EXPECT_EQ(pre.traversed, ref.traversed);
  EXPECT_EQ(pre.cross_border, ref.cross_border);
}

TEST(BorderPrecomputeTest, MatchesParentWalkOnGeneratedGraphs) {
  const graph::Graph g = SmallNetwork(1200, 1920, 10);
  for (uint32_t regions : {4u, 32u, 128u}) {
    auto kd = partition::KdTreePartitioner::Build(g, regions).value();
    const partition::Partitioning part = kd.Partition(g);
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << regions << " regions, " << threads << " threads");
      auto pre = ComputeBorderPrecompute(g, part, threads);
      ASSERT_TRUE(pre.ok()) << pre.status().ToString();
      EXPECT_EQ(pre->words_per_pair(), regions > 64 ? 2u : 1u);
      ExpectMatchesParentWalk(g, *pre);
    }
  }
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithUnreachableTargets) {
  // Three regions joined by one-way arcs only: 0 -> 1 -> 2. Region 2's
  // border nodes reach no other region, so whole rows stay unreached.
  // Region 0 is a one-way ring with a two-way dead-end spur (node 4) that
  // lies on no border-pair path.
  graph::GraphBuilder gb;
  for (int i = 0; i < 13; ++i) {
    gb.AddNode({static_cast<double>(i % 4), static_cast<double>(i / 4)});
  }
  gb.AddArc(0, 1, 2);  // region 0: ring 0 -> 1 -> 2 -> 3 -> 0
  gb.AddArc(1, 2, 3);
  gb.AddArc(2, 3, 1);
  gb.AddArc(3, 0, 4);
  gb.AddBidirectional(0, 4, 5);
  gb.AddBidirectional(5, 6, 2);  // region 1: path 5 - 6 - 7 - 8
  gb.AddBidirectional(6, 7, 2);
  gb.AddBidirectional(7, 8, 1);
  gb.AddArc(9, 10, 1);  // region 2: one-way chain 9 -> 10 -> 11 -> 12
  gb.AddArc(10, 11, 1);
  gb.AddArc(11, 12, 1);
  gb.AddArc(1, 5, 4);  // 0 -> 1
  gb.AddArc(3, 8, 1);  // 0 -> 1
  gb.AddArc(7, 9, 3);  // 1 -> 2
  gb.AddArc(6, 11, 6);  // 1 -> 2
  const graph::Graph g = std::move(gb).Build().value();
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}, 3);

  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    auto pre = ComputeBorderPrecompute(g, part, threads);
    ASSERT_TRUE(pre.ok()) << pre.status().ToString();
    ExpectMatchesParentWalk(g, *pre);
    EXPECT_EQ(pre->MinDist(2, 0), graph::kInfDist);
    EXPECT_EQ(pre->MinDist(1, 0), graph::kInfDist);
    EXPECT_NE(pre->MinDist(0, 2), graph::kInfDist);
    EXPECT_FALSE(pre->cross_border[4]);
    // 12 is no border node and lies below no border target.
    EXPECT_FALSE(pre->cross_border[12]);
  }
}

void ExpectMatchesParentWalkAtOneAndFourThreads(
    const graph::Graph& g, const partition::Partitioning& part) {
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    auto pre = ComputeBorderPrecompute(g, part, threads);
    ASSERT_TRUE(pre.ok()) << pre.status().ToString();
    ExpectMatchesParentWalk(g, *pre);
  }
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithBordersInPendantTrees) {
  // Core: the ring 0 - 1 - 2 - 3 - 0. Node 0 carries three pendant trees
  // (4 - 5 - {6, 7}, 8, and 9 - 10), node 2 one (11 - 12 - 13), and the
  // region boundaries run through the trees, so most border nodes are
  // pendant and several trees share a root.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 4);
  AddBoth(&arcs, 1, 2, 3);
  AddBoth(&arcs, 2, 3, 5);
  AddBoth(&arcs, 3, 0, 2);
  AddBoth(&arcs, 0, 4, 1);
  AddBoth(&arcs, 4, 5, 2);
  AddBoth(&arcs, 5, 6, 3);
  AddBoth(&arcs, 5, 7, 1);
  AddBoth(&arcs, 0, 8, 6);
  AddBoth(&arcs, 0, 9, 2);
  AddBoth(&arcs, 9, 10, 2);
  AddBoth(&arcs, 2, 11, 1);
  AddBoth(&arcs, 11, 12, 4);
  AddBoth(&arcs, 12, 13, 1);
  const graph::Graph g = FromArcs(14, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 0, 1, 1, 0, 2, 3, 2, 1, 0, 3, 1, 2, 3}, 4);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithinOneTree) {
  // Source and target in one pendant tree on different branches: the
  // tree 2 - 3 - {4 - 5, 6 - {7, 8}} hangs off the triangle 0 - 1 - 2, and
  // only the tree's leaves leave region 0.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 2);
  AddBoth(&arcs, 1, 2, 2);
  AddBoth(&arcs, 2, 0, 2);
  AddBoth(&arcs, 2, 3, 1);
  AddBoth(&arcs, 3, 4, 5);
  AddBoth(&arcs, 4, 5, 1);
  AddBoth(&arcs, 3, 6, 2);
  AddBoth(&arcs, 6, 7, 1);
  AddBoth(&arcs, 6, 8, 3);
  const graph::Graph g = FromArcs(9, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 0, 0, 0, 0, 1, 0, 2, 1}, 3);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithOneWayTreeArcs) {
  // Square core 0 - 1 - 2 - 3 - 0. Node 1's tree is one-way down
  // (1 -> 4 -> 5), node 3's one-way up (7 -> 6 -> 3), and node 0's mixes
  // both (0 -> 8, 8 - 9, 10 -> 8), so some border pairs are unreachable
  // in one direction only.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 3);
  AddBoth(&arcs, 1, 2, 3);
  AddBoth(&arcs, 2, 3, 3);
  AddBoth(&arcs, 3, 0, 3);
  arcs.push_back({1, 4, 2});
  arcs.push_back({4, 5, 2});
  arcs.push_back({7, 6, 1});
  arcs.push_back({6, 3, 1});
  arcs.push_back({0, 8, 2});
  AddBoth(&arcs, 8, 9, 1);
  arcs.push_back({10, 8, 4});
  const graph::Graph g = FromArcs(11, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 0, 1, 1, 1, 2, 2, 0, 0, 2, 1}, 3);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkOnAOneWayChainToANonBorderRoot) {
  // The ring 0 - 1 - 2 - 3 has one border-free node, 1, and the chain
  // 4 -> 5 -> 6 -> 1 runs into it one way. Node 6 is no border node and
  // is reached from no other source, but lies on every path from 5 to the
  // ring's border nodes.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 1);
  AddBoth(&arcs, 1, 2, 1);
  AddBoth(&arcs, 2, 3, 1);
  AddBoth(&arcs, 3, 0, 1);
  arcs.push_back({4, 5, 1});
  arcs.push_back({5, 6, 1});
  arcs.push_back({6, 1, 1});
  const graph::Graph g = FromArcs(7, arcs);
  const partition::Partitioning part =
      partition::MakePartitioning({0, 0, 0, 1, 1, 0, 0}, 2);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
  auto pre = ComputeBorderPrecompute(g, part);
  ASSERT_TRUE(pre.ok());
  EXPECT_TRUE(pre->cross_border[6]);
}

TEST(BorderPrecomputeTest, MatchesParentWalkWhenOnlyOneTreeHasBorders) {
  // The ring 0 - 1 - 2 - 3 lies in one region, so every border node is in
  // the tree 0 - 4 - 5 - {6, 7} and no search enters that tree from
  // outside: node 4 lies above border nodes but on no border-pair path.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 1);
  AddBoth(&arcs, 1, 2, 1);
  AddBoth(&arcs, 2, 3, 1);
  AddBoth(&arcs, 3, 0, 1);
  AddBoth(&arcs, 0, 4, 2);
  AddBoth(&arcs, 4, 5, 2);
  AddBoth(&arcs, 5, 6, 1);
  AddBoth(&arcs, 5, 7, 3);
  const graph::Graph g = FromArcs(8, arcs);
  const partition::Partitioning part =
      partition::MakePartitioning({0, 0, 0, 0, 0, 0, 1, 0}, 2);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
  auto pre = ComputeBorderPrecompute(g, part);
  ASSERT_TRUE(pre.ok());
  EXPECT_FALSE(pre->cross_border[4]);
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithZeroWeightAndParallelArcs) {
  // Zero-weight arcs make equal-distance ties in the core and in the
  // trees; parallel arcs of different weights (in both the core and a
  // tree) must resolve to the lighter one, and a one-way pair of parallel
  // arcs still counts as one neighbour.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 0);
  AddBoth(&arcs, 1, 2, 2);
  AddBoth(&arcs, 0, 3, 2);
  AddBoth(&arcs, 3, 2, 0);
  AddBoth(&arcs, 1, 3, 2);
  arcs.push_back({0, 1, 5});  // parallel to the zero-weight 0 -> 1
  AddBoth(&arcs, 2, 4, 0);
  AddBoth(&arcs, 4, 5, 3);
  arcs.push_back({4, 5, 1});  // parallel, lighter, one direction only
  AddBoth(&arcs, 4, 6, 0);
  arcs.push_back({3, 7, 0});
  arcs.push_back({3, 7, 4});
  AddBoth(&arcs, 7, 8, 0);
  const graph::Graph g = FromArcs(9, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 1, 0, 1, 2, 0, 1, 2, 0}, 3);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkOnAComponentThatIsATree) {
  // Two components: a tree 0 - 1 - {2, 3 - 4} with an empty 2-core, and a
  // one-way two-node path 5 -> 6; plus an isolated node 7.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 2);
  AddBoth(&arcs, 1, 2, 1);
  AddBoth(&arcs, 1, 3, 3);
  AddBoth(&arcs, 3, 4, 1);
  arcs.push_back({5, 6, 2});
  const graph::Graph g = FromArcs(8, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 1, 0, 1, 2, 2, 0, 1}, 3);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkOnRandomTreeHeavyGraphs) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testing_support::PartitionedGraph pg =
        testing_support::RandomTreeHeavyGraph(seed);
    ExpectMatchesParentWalkAtOneAndFourThreads(pg.g, pg.part);
  }
}

// The cases below pin the search over the chain-contracted core: chain
// interiors are found from their chain's two ends, and ties between them
// must resolve as the plain search's pop order does.

TEST(BorderPrecomputeTest, MatchesParentWalkAtAChainMeetingPoint) {
  // Source 0 reaches kernel nodes 1 and 2 at distance 1 each; the chain
  // 1 - 3 - 6 - 5 - 4 - 7 - 2 between them meets at the border node 5,
  // reached at 4 through 6 (region 3) and through 4 (region 4). Node 4
  // pops before 6, so the path comes from 2's side. Node 8 makes 0, 1 and
  // 2 kernel nodes.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 1);
  AddBoth(&arcs, 0, 2, 1);
  AddBoth(&arcs, 0, 8, 1);
  AddBoth(&arcs, 8, 1, 3);
  AddBoth(&arcs, 8, 2, 3);
  AddBoth(&arcs, 1, 3, 1);
  AddBoth(&arcs, 3, 6, 1);
  AddBoth(&arcs, 6, 5, 1);
  AddBoth(&arcs, 5, 4, 1);
  AddBoth(&arcs, 4, 7, 1);
  AddBoth(&arcs, 7, 2, 1);
  const graph::Graph g = FromArcs(9, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {1, 0, 0, 3, 4, 2, 3, 4, 0}, 5);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
  auto pre = ComputeBorderPrecompute(g, part);
  ASSERT_TRUE(pre.ok());
  EXPECT_TRUE(pre->TraversesRegion(1, 2, 4));
  EXPECT_FALSE(pre->TraversesRegion(1, 2, 3));
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithTwoEqualChainsIntoOneNode) {
  // Kernel nodes 0 and 1 are joined by an arc of 10 and two chains of
  // total 3, 0 - 2 - 5 - 1 (traced first) and 0 - 3 - 4 - 1, whose nodes
  // are no border nodes. The border nodes are 0 and 1 and the leaves 6
  // and 7 on them. From 0, chain 0-2-5-1 relaxes 1 first, but 4 pops
  // before 5, so 1's parent is 4; from 1, 2 pops before 3, so 0's parent
  // is 2. Each chain thus lies on one direction's paths.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 10);
  AddBoth(&arcs, 0, 2, 1);
  AddBoth(&arcs, 2, 5, 1);
  AddBoth(&arcs, 5, 1, 1);
  AddBoth(&arcs, 0, 3, 1);
  AddBoth(&arcs, 3, 4, 1);
  AddBoth(&arcs, 4, 1, 1);
  AddBoth(&arcs, 0, 6, 1);
  AddBoth(&arcs, 1, 7, 1);
  const graph::Graph g = FromArcs(8, arcs);
  const partition::Partitioning part =
      partition::MakePartitioning({0, 0, 0, 0, 0, 0, 2, 1}, 3);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
  auto pre = ComputeBorderPrecompute(g, part);
  ASSERT_TRUE(pre.ok());
  for (graph::NodeId v : {2u, 3u, 4u, 5u}) {
    EXPECT_FALSE(pre->borders.is_border[v]) << v;
    EXPECT_TRUE(pre->cross_border[v]) << v;
  }
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithOneWayAndZeroWeightChains) {
  // Kernel nodes 0 and 5 (joined by an arc of 4) and three chains between
  // them: 0 -> 1 -> 2 -> 5 one way; 0 - 3 - 4 - 5 whose zero-weight step
  // 3 - 4 makes 3 and 4 kernel nodes; and 5 - 6 - 7 - 0 where 6 -> 7 has
  // no arc back, so 6 is reached from 5 only.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 5, 4);
  arcs.push_back({0, 1, 1});
  arcs.push_back({1, 2, 2});
  arcs.push_back({2, 5, 1});
  AddBoth(&arcs, 0, 3, 2);
  AddBoth(&arcs, 3, 4, 0);
  arcs.push_back({4, 5, 1});
  AddBoth(&arcs, 5, 6, 1);
  arcs.push_back({6, 7, 1});
  AddBoth(&arcs, 7, 0, 2);
  const graph::Graph g = FromArcs(8, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 1, 1, 2, 2, 0, 3, 3}, 4);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithParallelArcsInAChain) {
  // Kernel nodes 0 and 1, joined by an arc of 6 and two chains; the chain
  // 0 - 2 - 3 - 1 has parallel arcs 2 -> 3 of 3 and 1 (the lighter counts)
  // and a single 3 -> 2 of 2.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 6);
  AddBoth(&arcs, 0, 2, 1);
  arcs.push_back({2, 3, 3});
  arcs.push_back({2, 3, 1});
  arcs.push_back({3, 2, 2});
  AddBoth(&arcs, 3, 1, 1);
  AddBoth(&arcs, 0, 4, 2);
  arcs.push_back({4, 1, 1});
  arcs.push_back({4, 1, 2});
  arcs.push_back({1, 4, 1});
  const graph::Graph g = FromArcs(5, arcs);
  const partition::Partitioning part =
      partition::MakePartitioning({0, 1, 2, 3, 2}, 4);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithAChainFromANodeToItself) {
  // Kernel node 0 carries two loops, 0 - 1 - 2 - 3 - 0 (2 is reached at
  // equal distance both ways round) and 0 - 4 - 5 - 0.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 1);
  AddBoth(&arcs, 1, 2, 1);
  AddBoth(&arcs, 2, 3, 1);
  AddBoth(&arcs, 3, 0, 1);
  AddBoth(&arcs, 0, 4, 2);
  AddBoth(&arcs, 4, 5, 1);
  arcs.push_back({5, 0, 1});
  const graph::Graph g = FromArcs(6, arcs);
  const partition::Partitioning part =
      partition::MakePartitioning({0, 1, 2, 1, 3, 3}, 4);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkOnACycleWithoutKernelNodes) {
  // A ring 0 - 1 - 2 - 3 - 4 - 0 of degree-2 nodes (its smallest node
  // becomes the kernel node) and a one-way ring 5 -> 6 -> 7 -> 5.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 1);
  AddBoth(&arcs, 1, 2, 2);
  AddBoth(&arcs, 2, 3, 1);
  AddBoth(&arcs, 3, 4, 1);
  AddBoth(&arcs, 4, 0, 1);
  arcs.push_back({5, 6, 1});
  arcs.push_back({6, 7, 1});
  arcs.push_back({7, 5, 1});
  const graph::Graph g = FromArcs(8, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 0, 1, 1, 2, 0, 1, 2}, 3);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithARootInsideAChain) {
  // Kernel nodes 0 and 1 (an arc and the chain 0 - 5 - 1 between them)
  // and the chain 0 - 2 - 3 - 4 - 1. The pendant tree 3 - 6 - 7 hangs from
  // the chain interior 3, and the border node 4 is an interior too: 3
  // reaches 4 at 3 directly and at 4 around through 2, 0 and 1.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 1);
  AddBoth(&arcs, 0, 5, 2);
  AddBoth(&arcs, 5, 1, 2);
  AddBoth(&arcs, 0, 2, 1);
  AddBoth(&arcs, 2, 3, 1);
  AddBoth(&arcs, 3, 4, 3);
  AddBoth(&arcs, 4, 1, 1);
  AddBoth(&arcs, 3, 6, 1);
  AddBoth(&arcs, 6, 7, 1);
  const graph::Graph g = FromArcs(8, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 0, 0, 0, 1, 0, 0, 2}, 3);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkWithATieOnTheRootsChain) {
  // The graph above with 3 - 4 weighted 4: the root 3 now reaches the
  // border node 4 at 4 both directly and around through 2, 0 and 1, so
  // the tie inside the root's own chain decides 4's parent.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 1);
  AddBoth(&arcs, 0, 5, 2);
  AddBoth(&arcs, 5, 1, 2);
  AddBoth(&arcs, 0, 2, 1);
  AddBoth(&arcs, 2, 3, 1);
  AddBoth(&arcs, 3, 4, 4);
  AddBoth(&arcs, 4, 1, 1);
  AddBoth(&arcs, 3, 6, 1);
  AddBoth(&arcs, 6, 7, 1);
  const graph::Graph g = FromArcs(8, arcs);
  const partition::Partitioning part = partition::MakePartitioning(
      {0, 0, 0, 0, 1, 0, 0, 2}, 3);
  ExpectMatchesParentWalkAtOneAndFourThreads(g, part);
}

TEST(BorderPrecomputeTest, MatchesParentWalkOnRandomChainHeavyGraphs) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testing_support::PartitionedGraph pg =
        testing_support::RandomChainHeavyGraph(seed);
    ExpectMatchesParentWalkAtOneAndFourThreads(pg.g, pg.part);
  }
}

TEST(BorderPrecomputeTest, MatchesParentWalkOnRandomChainHeavyGraphsWithZeros) {
  // Zero-weight arcs turn chain nodes into kernel nodes and tie kernel
  // nodes at one distance, where the pop order is no longer by id.
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testing_support::PartitionedGraph pg =
        testing_support::RandomChainHeavyGraph(seed, /*min_weight=*/0);
    ExpectMatchesParentWalkAtOneAndFourThreads(pg.g, pg.part);
  }
}

TEST(BorderPrecomputeTest, MatchesParentWalkOnGermany) {
  const graph::Graph g =
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1).value();
  for (uint32_t regions : {32u, 128u}) {
    SCOPED_TRACE(::testing::Message() << regions << " regions");
    auto kd = partition::KdTreePartitioner::Build(g, regions).value();
    ExpectMatchesParentWalkAtOneAndFourThreads(g, kd.Partition(g));
  }
}

TEST(BorderPrecomputeTest, MinMaxConsistency) {
  Built b = Make(300, 480, 1, 8);
  for (graph::RegionId i = 0; i < 8; ++i) {
    for (graph::RegionId j = 0; j < 8; ++j) {
      if (b.pre.MinDist(i, j) == graph::kInfDist) continue;
      EXPECT_LE(b.pre.MinDist(i, j), b.pre.MaxDist(i, j)) << i << "," << j;
    }
  }
}

TEST(BorderPrecomputeTest, MatrixMatchesDirectDijkstra) {
  Built b = Make(200, 320, 2, 4);
  // Recompute one row by hand.
  const graph::RegionId ri = 1;
  for (graph::RegionId rj = 0; rj < 4; ++rj) {
    graph::Dist mn = graph::kInfDist, mx = 0;
    algo::SearchWorkspace tree;
    for (graph::NodeId from : b.pre.borders.region_border[ri]) {
      algo::DijkstraAll(b.g, from, tree);
      for (graph::NodeId to : b.pre.borders.region_border[rj]) {
        mn = std::min(mn, tree.DistTo(to));
        mx = std::max(mx, tree.DistTo(to));
      }
    }
    EXPECT_EQ(b.pre.MinDist(ri, rj), mn) << rj;
    EXPECT_EQ(b.pre.MaxDist(ri, rj), mx) << rj;
  }
}

TEST(BorderPrecomputeTest, DiagonalMinIsZero) {
  Built b = Make(300, 480, 3, 8);
  for (graph::RegionId r = 0; r < 8; ++r) {
    if (b.pre.borders.region_border[r].empty()) continue;
    // A border node reaches itself at distance 0.
    EXPECT_EQ(b.pre.MinDist(r, r), 0u);
  }
}

TEST(BorderPrecomputeTest, TraversedIncludesEndpointsNeighbours) {
  Built b = Make(300, 480, 4, 8);
  // Needed set always contains both endpoint regions.
  for (graph::RegionId i = 0; i < 8; ++i) {
    for (graph::RegionId j = 0; j < 8; ++j) {
      const std::vector<bool> needed = NeededSet(b.pre, i, j);
      EXPECT_TRUE(needed[i]);
      EXPECT_TRUE(needed[j]);
    }
  }
}

TEST(BorderPrecomputeTest, CrossBorderCoversBorderNodes) {
  Built b = Make(300, 480, 5, 8);
  // Every border node trivially lies on a border-pair shortest path (as an
  // endpoint), so it must be classified cross-border.
  for (graph::NodeId v : b.pre.borders.border_nodes) {
    EXPECT_TRUE(b.pre.cross_border[v]) << v;
  }
}

TEST(BorderPrecomputeTest, SomeNodesAreLocal) {
  Built b = Make(500, 800, 6, 4);
  size_t local = 0;
  for (graph::NodeId v = 0; v < b.g.num_nodes(); ++v) {
    if (!b.pre.cross_border[v]) ++local;
  }
  // The §4.1 optimization only helps if a meaningful share of nodes is
  // local.
  EXPECT_GT(local, b.g.num_nodes() / 20);
}

TEST(BorderPrecomputeTest, NeededRegionsContainTrueShortestPathRegions) {
  // The NR correctness invariant: for border nodes bs in Ri and bt in Rj,
  // the regions of every node on a shortest bs->bt path are in the needed
  // set of (Ri, Rj).
  Built b = Make(400, 640, 7, 8);
  const auto& part = b.pre.part;
  int checked = 0;
  for (graph::RegionId i = 0; i < 8 && checked < 12; ++i) {
    if (b.pre.borders.region_border[i].empty()) continue;
    const graph::NodeId bs = b.pre.borders.region_border[i].front();
    for (graph::RegionId j = 0; j < 8 && checked < 12; ++j) {
      if (b.pre.borders.region_border[j].empty()) continue;
      const graph::NodeId bt = b.pre.borders.region_border[j].back();
      if (bs == bt) continue;
      graph::Path p = algo::DijkstraPath(b.g, bs, bt);
      ASSERT_TRUE(p.found());
      // Recorded ties may differ; the invariant that must hold is that the
      // needed-set subgraph contains *some* path of optimal length. Verify
      // with a filtered Dijkstra.
      const std::vector<bool> region_ok = NeededSet(b.pre, i, j);
      algo::SearchWorkspace ws;
      algo::DijkstraSearch(
          b.g, bs, bt,
          [&](graph::NodeId, const graph::Graph::Arc& arc) {
            return region_ok[part.node_region[arc.to]];
          },
          ws);
      EXPECT_EQ(ws.DistTo(bt), p.dist) << i << "->" << j;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(BorderPrecomputeTest, RecordsPrecomputeTime) {
  Built b = Make(200, 320, 8, 4);
  EXPECT_GT(b.pre.seconds, 0.0);
}

TEST(BorderPrecomputeTest, RejectsMismatchedPartitioning) {
  graph::Graph g = SmallNetwork(100, 160, 9);
  partition::Partitioning bad;
  bad.num_regions = 2;
  bad.node_region = {0, 1};  // wrong size
  EXPECT_FALSE(ComputeBorderPrecompute(g, bad).ok());
}

}  // namespace
}  // namespace airindex::core
