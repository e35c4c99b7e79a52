#include "algo/landmark.h"

#include <gtest/gtest.h>

#include "algo/dijkstra.h"
#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::RandomPairs;
using testing_support::SmallNetwork;

TEST(LandmarkTest, BuildSelectsDistinctLandmarks) {
  graph::Graph g = SmallNetwork();
  auto idx = LandmarkIndex::Build(g, 4);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->num_landmarks(), 4u);
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = i + 1; j < 4; ++j) {
      EXPECT_NE(idx->landmarks()[i], idx->landmarks()[j]);
    }
  }
}

TEST(LandmarkTest, RejectsBadCounts) {
  graph::Graph g = SmallNetwork(50, 80, 5);
  EXPECT_FALSE(LandmarkIndex::Build(g, 0).ok());
  EXPECT_FALSE(LandmarkIndex::Build(g, 51).ok());
}

TEST(LandmarkTest, DistanceVectorsMatchDijkstra) {
  graph::Graph g = SmallNetwork(200, 320, 9);
  auto idx = LandmarkIndex::Build(g, 3);
  ASSERT_TRUE(idx.ok());
  graph::Graph rev = g.Reversed();
  for (uint32_t l = 0; l < 3; ++l) {
    const graph::NodeId lm = idx->landmarks()[l];
    SearchWorkspace fwd, bwd;
    DijkstraAll(g, lm, fwd);
    DijkstraAll(rev, lm, bwd);
    for (graph::NodeId v = 0; v < g.num_nodes(); v += 17) {
      EXPECT_EQ(idx->FromLandmark(l, v), fwd.DistTo(v));
      EXPECT_EQ(idx->ToLandmark(l, v), bwd.DistTo(v));
    }
  }
}

/// The key ALT property: the bound never overestimates.
class LandmarkBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LandmarkBoundTest, LowerBoundIsAdmissible) {
  graph::Graph g = SmallNetwork(250, 400, GetParam());
  auto idx = LandmarkIndex::Build(g, 4, GetParam());
  ASSERT_TRUE(idx.ok());
  for (auto [s, t] : RandomPairs(g, 15, GetParam() + 7)) {
    const graph::Dist truth = DijkstraPath(g, s, t).dist;
    EXPECT_LE(idx->LowerBound(s, t), truth) << s << "->" << t;
  }
}

TEST_P(LandmarkBoundTest, QueryIsExact) {
  graph::Graph g = SmallNetwork(250, 400, GetParam() + 100);
  auto idx = LandmarkIndex::Build(g, 4, GetParam());
  ASSERT_TRUE(idx.ok());
  for (auto [s, t] : RandomPairs(g, 15, GetParam() + 13)) {
    Path p = idx->Query(g, s, t);
    EXPECT_EQ(p.dist, DijkstraPath(g, s, t).dist);
    EXPECT_EQ(PathLength(g, p.nodes), p.dist);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LandmarkBoundTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(LandmarkTest, QueryUsuallySettlesFewerThanDijkstra) {
  graph::Graph g = SmallNetwork(800, 1280, 31);
  auto idx = LandmarkIndex::Build(g, 8);
  ASSERT_TRUE(idx.ok());
  size_t alt_total = 0, dj_total = 0;
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(g, 30, 32)) {
    size_t settled = 0;
    idx->Query(g, s, t, &settled);
    alt_total += settled;
    DijkstraSearch(g, s, t, AllEdges{}, ws);
    dj_total += ws.settled();
  }
  EXPECT_LT(alt_total, dj_total);
}

TEST(LandmarkTest, BytesPerNodeFormula) {
  graph::Graph g = SmallNetwork(100, 160, 3);
  auto idx = LandmarkIndex::Build(g, 4);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->BytesPerNode(), 4u * 2 * 4);
}

}  // namespace
}  // namespace airindex::algo
