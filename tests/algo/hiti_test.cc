#include "algo/hiti.h"

#include <gtest/gtest.h>

#include "algo/dijkstra.h"
#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::RandomPairs;
using testing_support::SmallNetwork;

struct Built {
  graph::Graph g;
  HiTiIndex idx;
};

Built Make(uint32_t nodes, uint32_t edges, uint64_t seed, uint32_t regions) {
  graph::Graph g = SmallNetwork(nodes, edges, seed);
  auto kd = partition::KdTreePartitioner::Build(g, regions).value();
  auto idx = HiTiIndex::Build(g, kd).value();
  return {std::move(g), std::move(idx)};
}

class HiTiCorrectnessTest : public ::testing::TestWithParam<
                                std::tuple<uint64_t, uint32_t>> {};

TEST_P(HiTiCorrectnessTest, DistanceMatchesDijkstra) {
  auto [seed, regions] = GetParam();
  Built built = Make(300, 480, seed, regions);
  for (auto [s, t] : RandomPairs(built.g, 20, seed + 3)) {
    const graph::Dist truth = DijkstraPath(built.g, s, t).dist;
    EXPECT_EQ(built.idx.QueryDistance(built.g, s, t), truth)
        << s << "->" << t << " regions=" << regions;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRegions, HiTiCorrectnessTest,
    ::testing::Combine(::testing::Values(41, 42, 43),
                       ::testing::Values(4u, 8u, 16u)));

TEST(HiTiTest, SameRegionQueriesAreExact) {
  Built built = Make(400, 640, 51, 8);
  const auto& part = built.idx.partitioning();
  // Pick pairs inside one region.
  for (graph::RegionId r = 0; r < 8; ++r) {
    const auto& nodes = part.region_nodes[r];
    if (nodes.size() < 2) continue;
    const graph::NodeId s = nodes.front(), t = nodes.back();
    EXPECT_EQ(built.idx.QueryDistance(built.g, s, t),
              DijkstraPath(built.g, s, t).dist);
  }
}

TEST(HiTiTest, SuperEdgesAreAtLeastGlobalDistances) {
  Built built = Make(300, 480, 52, 8);
  // Within-sub-graph shortest paths can never beat full-graph ones.
  for (uint32_t h = 1; h < 16; ++h) {
    const auto& sub = built.idx.Info(h);
    const size_t nb = sub.border.size();
    for (size_t i = 0; i < nb && i < 4; ++i) {
      SearchWorkspace tree;
      DijkstraAll(built.g, sub.border[i], tree);
      for (size_t j = 0; j < nb; ++j) {
        if (sub.dmat[i * nb + j] == graph::kInfDist) continue;
        EXPECT_GE(sub.dmat[i * nb + j], tree.DistTo(sub.border[j]));
      }
    }
  }
}

TEST(HiTiTest, RootSubgraphHasNoBorder) {
  Built built = Make(200, 320, 53, 8);
  // The root covers the whole network; nothing crosses its boundary.
  EXPECT_TRUE(built.idx.Info(1).border.empty());
}

TEST(HiTiTest, IndexBytesExceedNetworkScale) {
  Built built = Make(500, 800, 54, 16);
  // HiTi's defining problem in the paper: voluminous pre-computed tables.
  EXPECT_GT(built.idx.IndexBytes(), 10000u);
  EXPECT_GT(built.idx.MemoryBytes(), 0u);
}

TEST(HiTiTest, FromTablesReproducesQueries) {
  Built built = Make(250, 400, 55, 8);
  std::vector<HiTiIndex::SubgraphInfo> subs(16);
  for (uint32_t h = 1; h < 16; ++h) subs[h] = built.idx.Info(h);
  HiTiIndex copy = HiTiIndex::FromTables(
      8, built.idx.partitioning(), std::move(subs));
  for (auto [s, t] : RandomPairs(built.g, 10, 56)) {
    EXPECT_EQ(copy.QueryDistance(built.g, s, t),
              built.idx.QueryDistance(built.g, s, t));
  }
}

}  // namespace
}  // namespace airindex::algo
