#include "partition/kd_tree.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "testing/test_graphs.h"

namespace airindex::partition {
namespace {

using testing_support::SmallNetwork;

TEST(KdTreeTest, RejectsNonPowerOfTwo) {
  graph::Graph g = SmallNetwork(100, 160, 1);
  EXPECT_FALSE(KdTreePartitioner::Build(g, 3).ok());
  EXPECT_FALSE(KdTreePartitioner::Build(g, 0).ok());
  EXPECT_FALSE(KdTreePartitioner::Build(g, 1).ok());
}

TEST(KdTreeTest, RejectsMoreRegionsThanNodes) {
  graph::Graph g = SmallNetwork(16, 20, 1);
  EXPECT_FALSE(KdTreePartitioner::Build(g, 32).ok());
}

TEST(KdTreeTest, SplitCountIsRegionsMinusOne) {
  graph::Graph g = SmallNetwork(200, 320, 2);
  for (uint32_t r : {2u, 4u, 8u, 16u, 32u}) {
    auto kd = KdTreePartitioner::Build(g, r);
    ASSERT_TRUE(kd.ok());
    EXPECT_EQ(kd->splits_bfs().size(), r - 1);
    EXPECT_EQ(kd->num_regions(), r);
  }
}

TEST(KdTreeTest, EveryNodeGetsAValidRegion) {
  graph::Graph g = SmallNetwork(300, 480, 3);
  auto kd = KdTreePartitioner::Build(g, 16).value();
  Partitioning part = kd.Partition(g);
  ASSERT_EQ(part.node_region.size(), g.num_nodes());
  for (graph::RegionId r : part.node_region) EXPECT_LT(r, 16u);
}

TEST(KdTreeTest, MedianSplitBalancesPopulations) {
  graph::Graph g = SmallNetwork(1024, 1600, 4);
  auto kd = KdTreePartitioner::Build(g, 16).value();
  Partitioning part = kd.Partition(g);
  // Median splits keep leaves within a factor ~2 of the average.
  const size_t expected = g.num_nodes() / 16;
  for (graph::RegionId r = 0; r < 16; ++r) {
    EXPECT_GT(part.region_nodes[r].size(), expected / 2) << r;
    EXPECT_LT(part.region_nodes[r].size(), expected * 2) << r;
  }
}

TEST(KdTreeTest, ClientReconstructionMatchesServer) {
  // The crux of the broadcast first component: a client holding only the
  // BFS split sequence maps every node to the same region as the server.
  graph::Graph g = SmallNetwork(500, 800, 5);
  auto server = KdTreePartitioner::Build(g, 32).value();
  auto client = KdTreePartitioner::FromSplits(server.splits_bfs()).value();
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(client.RegionOf(g.Coord(v)), server.RegionOf(g.Coord(v)));
  }
}

TEST(KdTreeTest, FromSplitsRejectsBadLength) {
  EXPECT_FALSE(KdTreePartitioner::FromSplits({}).ok());
  EXPECT_FALSE(KdTreePartitioner::FromSplits({1.0, 2.0}).ok());  // len 2
}

TEST(KdTreeTest, KdRegionOfMatchesRegionOf) {
  // The allocation-free lookup over a split span agrees with the
  // partitioner at every node, for every tree depth.
  graph::Graph g = SmallNetwork(500, 800, 5);
  for (uint32_t regions : {2u, 4u, 16u, 32u}) {
    auto server = KdTreePartitioner::Build(g, regions).value();
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      auto r = KdRegionOf(server.splits_bfs(), g.Coord(v));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(*r, server.RegionOf(g.Coord(v))) << regions << " " << v;
    }
  }
}

TEST(KdTreeTest, KdRegionOfRejectsBadLength) {
  const std::vector<double> splits = {1.0, 2.0, 3.0, 4.0};
  const std::span<const double> all(splits);
  EXPECT_FALSE(KdRegionOf(all.first(0), {}).ok());
  EXPECT_FALSE(KdRegionOf(all.first(2), {}).ok());
  EXPECT_FALSE(KdRegionOf(all.first(4), {}).ok());
  EXPECT_TRUE(KdRegionOf(all.first(1), {}).ok());
  EXPECT_TRUE(KdRegionOf(all.first(3), {}).ok());
}

TEST(KdTreeTest, PaperExampleRegionNumbering) {
  // Two-level tree: first split on y, then x. Region ids follow the
  // left-to-right leaf convention: (below, left)=0, (below, right)=1,
  // (above, left)=2, (above, right)=3 -- matching Fig. 2's R1..R4 reading.
  auto kd = KdTreePartitioner::FromSplits({10.0, 9.0, 11.0}).value();
  EXPECT_EQ(kd.RegionOf({5.0, 5.0}), 0u);    // y<10, x<9
  EXPECT_EQ(kd.RegionOf({12.0, 5.0}), 1u);   // y<10, x>=9
  EXPECT_EQ(kd.RegionOf({5.0, 15.0}), 2u);   // y>=10, x<11
  EXPECT_EQ(kd.RegionOf({12.0, 15.0}), 3u);  // y>=10, x>=11
}

TEST(KdTreeTest, FirstSplitIsOnY) {
  // Points separated only on y must land in different level-1 children.
  auto kd = KdTreePartitioner::FromSplits({50.0}).value();
  EXPECT_EQ(kd.RegionOf({0.0, 10.0}), 0u);
  EXPECT_EQ(kd.RegionOf({0.0, 90.0}), 1u);
}

TEST(KdTreeTest, DeterministicAcrossRebuilds) {
  graph::Graph g = SmallNetwork(300, 480, 6);
  auto a = KdTreePartitioner::Build(g, 8).value();
  auto b = KdTreePartitioner::Build(g, 8).value();
  EXPECT_EQ(a.splits_bfs(), b.splits_bfs());
}

}  // namespace
}  // namespace airindex::partition
