#include "algo/landmark.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/astar.h"
#include "algo/dijkstra.h"
#include "common/rng.h"
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

// Farthest-point selection by its definition: a full search from every
// landmark chosen so far, folded into the minimum distance to the set, and
// the first landmark the node farthest from a random start.
std::vector<graph::NodeId> FarthestPointLandmarks(const graph::Graph& g,
                                                  uint32_t count,
                                                  uint64_t seed) {
  const size_t n = g.num_nodes();
  Rng rng(seed);
  const auto start = static_cast<graph::NodeId>(rng.NextBounded(n));
  std::vector<graph::NodeId> chosen;
  SearchWorkspace ws;
  for (uint32_t l = 0; l < count; ++l) {
    std::vector<graph::Dist> min_dist(n, graph::kInfDist);
    std::vector<graph::NodeId> sources = chosen;
    if (l == 0) sources = {start};
    for (graph::NodeId source : sources) {
      DijkstraAll(g, source, ws);
      for (graph::NodeId v = 0; v < n; ++v) {
        min_dist[v] = std::min(min_dist[v], ws.DistTo(v));
      }
    }
    // Candidates are the nodes the last source reaches; ties go to the
    // largest id.
    graph::NodeId farthest = sources.back();
    graph::Dist best = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (ws.DistTo(v) == graph::kInfDist ||
          std::find(chosen.begin(), chosen.end(), v) != chosen.end()) {
        continue;
      }
      if (min_dist[v] >= best) {
        best = min_dist[v];
        farthest = v;
      }
    }
    chosen.push_back(farthest);
  }
  return chosen;
}

TEST(LandmarkTest, SelectionMatchesFarthestPointDefinition) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    // One-way arcs leave some nodes unreachable from some landmarks.
    const graph::Graph g = testing_support::RandomTreeHeavyGraph(seed).g;
    const uint32_t count = std::min<uint32_t>(5, g.num_nodes());
    auto idx = LandmarkIndex::Build(g, count, seed);
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(idx->landmarks(), FarthestPointLandmarks(g, count, seed));
  }
  const graph::Graph g = SmallNetwork(300, 480, 4);
  auto idx = LandmarkIndex::Build(g, 8, 17);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->landmarks(), FarthestPointLandmarks(g, 8, 17));
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
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(g, 15, GetParam() + 13)) {
    Path p = AStarPath(
        g, s, t, [&](graph::NodeId v) { return idx->LowerBound(v, t); }, ws);
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
    AStarPath(
        g, s, t, [&](graph::NodeId v) { return idx->LowerBound(v, t); }, ws,
        &settled);
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
