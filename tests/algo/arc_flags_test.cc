#include "algo/arc_flags.h"

#include <gtest/gtest.h>

#include "algo/dijkstra.h"
#include "partition/kd_tree.h"
#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::RandomPairs;
using testing_support::SmallNetwork;

struct BuiltIndex {
  graph::Graph g;
  ArcFlagIndex idx;
};

BuiltIndex Make(uint32_t nodes, uint32_t edges, uint64_t seed,
                uint32_t regions) {
  graph::Graph g = SmallNetwork(nodes, edges, seed);
  auto kd = partition::KdTreePartitioner::Build(g, regions).value();
  auto part = kd.Partition(g);
  auto idx = ArcFlagIndex::Build(g, part.node_region, regions).value();
  return {std::move(g), std::move(idx)};
}

TEST(ArcFlagTest, RejectsBadInput) {
  graph::Graph g = SmallNetwork(100, 160, 1);
  EXPECT_FALSE(ArcFlagIndex::Build(g, {}, 4).ok());
  std::vector<graph::RegionId> labels(g.num_nodes(), 9);
  EXPECT_FALSE(ArcFlagIndex::Build(g, labels, 4).ok());  // id out of range
}

TEST(ArcFlagTest, BytesPerArcIsTwoPerRegion) {
  auto built = Make(100, 160, 2, 4);
  EXPECT_EQ(built.idx.BytesPerArc(), 8u);
  auto built16 = Make(100, 160, 2, 16);
  EXPECT_EQ(built16.idx.BytesPerArc(), 32u);
}

TEST(ArcFlagTest, IntraRegionArcsAlwaysFlagged) {
  auto built = Make(200, 320, 3, 8);
  const auto& labels = built.idx.node_region();
  size_t arc_index = 0;
  for (graph::NodeId v = 0; v < built.g.num_nodes(); ++v) {
    for (const auto& arc : built.g.OutArcs(v)) {
      EXPECT_TRUE(built.idx.ArcAllowed(arc_index, labels[arc.to]));
      ++arc_index;
    }
  }
}

class ArcFlagCorrectnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArcFlagCorrectnessTest, QueryMatchesDijkstra) {
  auto built = Make(300, 480, GetParam(), 8);
  for (auto [s, t] : RandomPairs(built.g, 25, GetParam() + 5)) {
    Path flagged = built.idx.Query(built.g, s, t);
    Path truth = DijkstraPath(built.g, s, t);
    EXPECT_EQ(flagged.dist, truth.dist) << s << "->" << t;
    EXPECT_EQ(PathLength(built.g, flagged.nodes), flagged.dist);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArcFlagCorrectnessTest,
                         ::testing::Values(10, 11, 12, 13));

// The workspace overload indexes flags by the arc's CSR position (pointer
// difference from the arc array); the reference here recomputes it from a
// prefix sum of out-degrees and runs the legacy value-returning search. A
// workspace reused across queries, after a search on a larger graph, must
// give the same path and settled count every time.
TEST(ArcFlagTest, WorkspaceQueryMatchesPrefixSumReference) {
  auto built = Make(300, 480, 31, 8);
  std::vector<size_t> first_arc(built.g.num_nodes() + 1, 0);
  for (graph::NodeId v = 0; v < built.g.num_nodes(); ++v) {
    first_arc[v + 1] = first_arc[v] + built.g.OutDegree(v);
  }
  SearchWorkspace ws;
  DijkstraAll(SmallNetwork(600, 960, 32), 0, ws);
  for (auto [s, t] : RandomPairs(built.g, 25, 33)) {
    const graph::RegionId region = built.idx.node_region()[t];
    SearchTree tree = DijkstraSearch(
        built.g, s, t, [&](graph::NodeId from, const graph::Graph::Arc& arc) {
          const size_t offset = &arc - built.g.OutArcs(from).data();
          return built.idx.ArcAllowed(first_arc[from] + offset, region);
        });
    const Path want = ExtractPath(tree, s, t);
    const Path got = built.idx.Query(built.g, s, t, ws);
    EXPECT_EQ(got.dist, want.dist) << s << "->" << t;
    EXPECT_EQ(got.nodes, want.nodes) << s << "->" << t;
    EXPECT_EQ(ws.settled(), tree.settled) << s << "->" << t;
  }
}

TEST(ArcFlagTest, PrunesSearchSpaceForCrossRegionQueries) {
  auto built = Make(800, 1280, 21, 16);
  size_t flagged_total = 0, plain_total = 0;
  for (auto [s, t] : RandomPairs(built.g, 30, 22)) {
    size_t settled = 0;
    built.idx.Query(built.g, s, t, &settled);
    flagged_total += settled;
    plain_total += DijkstraSearch(built.g, s, t, AllEdges{}).settled;
  }
  EXPECT_LT(flagged_total, plain_total);
}

TEST(ArcFlagTest, SetAllFlagsMakesArcAlwaysAllowed) {
  auto built = Make(100, 160, 4, 8);
  ArcFlagIndex empty = ArcFlagIndex::MakeEmpty(built.g.num_arcs(), 8,
                                               built.idx.node_region());
  EXPECT_FALSE(empty.ArcAllowed(0, 3));
  empty.SetAllFlags(0);
  for (graph::RegionId r = 0; r < 8; ++r) {
    EXPECT_TRUE(empty.ArcAllowed(0, r));
  }
}

TEST(ArcFlagTest, AllOnesIndexStillExact) {
  // The §6.2 loss fallback: flags all set degrade to plain Dijkstra.
  auto built = Make(200, 320, 5, 8);
  ArcFlagIndex allones = ArcFlagIndex::MakeEmpty(built.g.num_arcs(), 8,
                                                 built.idx.node_region());
  for (size_t a = 0; a < built.g.num_arcs(); ++a) allones.SetAllFlags(a);
  for (auto [s, t] : RandomPairs(built.g, 10, 6)) {
    EXPECT_EQ(allones.Query(built.g, s, t).dist,
              DijkstraPath(built.g, s, t).dist);
  }
}

TEST(ArcFlagTest, WordSerializationRoundTrip) {
  auto built = Make(150, 240, 7, 16);
  // Rebuild an index from the exported words and compare behaviour.
  ArcFlagIndex copy = ArcFlagIndex::MakeEmpty(built.g.num_arcs(), 16,
                                              built.idx.node_region());
  for (size_t a = 0; a < built.g.num_arcs(); ++a) {
    for (graph::RegionId r = 0; r < 16; ++r) {
      if (built.idx.ArcAllowed(a, r)) copy.SetArcFlag(a, r);
    }
  }
  for (auto [s, t] : RandomPairs(built.g, 10, 8)) {
    EXPECT_EQ(copy.Query(built.g, s, t).dist,
              built.idx.Query(built.g, s, t).dist);
  }
}

}  // namespace
}  // namespace airindex::algo
