#include "algo/arc_flags.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "algo/dijkstra.h"
#include "common/rng.h"
#include "graph/catalog.h"
#include "partition/kd_tree.h"
#include "partition/partitioning.h"
#include "testing/test_graphs.h"

namespace airindex::algo {
namespace {

using testing_support::AddBoth;
using testing_support::FromArcs;
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
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(built.g, 25, GetParam() + 5)) {
    Path flagged = built.idx.Query(built.g, s, t, ws);
    Path truth = DijkstraPath(built.g, s, t);
    EXPECT_EQ(flagged.dist, truth.dist) << s << "->" << t;
    EXPECT_EQ(PathLength(built.g, flagged.nodes), flagged.dist);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArcFlagCorrectnessTest,
                         ::testing::Values(10, 11, 12, 13));

// Query indexes flags by the arc's CSR position (pointer difference from
// the arc array); the reference here recomputes it from a prefix sum of
// out-degrees and runs its search in a fresh workspace. A workspace reused
// across queries, after a search on a larger graph, must give the same
// path and settled count every time.
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
    SearchWorkspace fresh;
    DijkstraSearch(
        built.g, s, t,
        [&](graph::NodeId from, const graph::Graph::Arc& arc) {
          const size_t offset = &arc - built.g.OutArcs(from).data();
          return built.idx.ArcAllowed(first_arc[from] + offset, region);
        },
        fresh);
    const Path want = ExtractPath(fresh, s, t);
    const Path got = built.idx.Query(built.g, s, t, ws);
    EXPECT_EQ(got.dist, want.dist) << s << "->" << t;
    EXPECT_EQ(got.nodes, want.nodes) << s << "->" << t;
    EXPECT_EQ(ws.settled(), fresh.settled()) << s << "->" << t;
  }
}

TEST(ArcFlagTest, PrunesSearchSpaceForCrossRegionQueries) {
  auto built = Make(800, 1280, 21, 16);
  size_t flagged_total = 0, plain_total = 0;
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(built.g, 30, 22)) {
    built.idx.Query(built.g, s, t, ws);
    flagged_total += ws.settled();
    DijkstraSearch(built.g, s, t, AllEdges{}, ws);
    plain_total += ws.settled();
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
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(built.g, 10, 6)) {
    EXPECT_EQ(allones.Query(built.g, s, t, ws).dist,
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
  SearchWorkspace ws;
  for (auto [s, t] : RandomPairs(built.g, 10, 8)) {
    EXPECT_EQ(copy.Query(built.g, s, t, ws).dist,
              built.idx.Query(built.g, s, t, ws).dist);
  }
}

// The flag words as one backward Dijkstra over the whole reversed graph per
// border node computes them: every node the search reaches flags the
// lightest arc to its search parent (the next hop of a shortest path to the
// border node; the first such arc in CSR order on a tie) for the border
// node's region, on top of the intra-region flags.
// Border nodes are both endpoints of every region-crossing arc, so the
// heads, where queries enter a region, are among them. This is the
// O(|B| * m log n) definition ArcFlagIndex::Build's core searches and tree
// passes must reproduce exactly.
std::vector<uint64_t> FlagsByFullGraphSearches(
    const graph::Graph& g, const partition::Partitioning& part) {
  const std::vector<graph::RegionId>& region = part.node_region;
  const size_t words = (part.num_regions + 63) / 64;
  std::vector<uint64_t> flags(g.num_arcs() * words, 0);
  auto set = [&](size_t arc, graph::RegionId r) {
    flags[arc * words + r / 64] |= uint64_t{1} << (r % 64);
  };
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& arc : g.OutArcs(v)) {
      set(g.ArcIndex(arc), region[arc.to]);
    }
  }
  const graph::Graph rev = g.Reversed();
  SearchWorkspace tree;
  for (graph::NodeId b : partition::ComputeBorders(g, part).border_nodes) {
    DijkstraAll(rev, b, tree);
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const graph::NodeId p = tree.ParentOf(v);
      if (p == graph::kInvalidNode) continue;
      const graph::Graph::Arc* lightest = nullptr;
      for (const graph::Graph::Arc& arc : g.OutArcs(v)) {
        if (arc.to == p &&
            (lightest == nullptr || arc.weight < lightest->weight)) {
          lightest = &arc;
        }
      }
      set(g.ArcIndex(*lightest), region[b]);
    }
  }
  return flags;
}

void ExpectFlagsMatchFullGraphSearches(const graph::Graph& g,
                                       const partition::Partitioning& part) {
  const std::vector<uint64_t> want = FlagsByFullGraphSearches(g, part);
  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    auto idx = ArcFlagIndex::Build(g, part.node_region, part.num_regions,
                                   threads);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    std::vector<uint64_t> got;
    for (size_t a = 0; a < g.num_arcs(); ++a) {
      got.insert(got.end(), idx->ArcWords(a),
                 idx->ArcWords(a) + idx->words_per_arc());
    }
    EXPECT_EQ(got, want);
  }
}

TEST(ArcFlagOracleTest, MatchesOnGeneratedGraphs) {
  const graph::Graph g = SmallNetwork(600, 960, 40);
  for (uint32_t regions : {4u, 16u, 128u}) {
    SCOPED_TRACE(::testing::Message() << regions << " regions");
    auto kd = partition::KdTreePartitioner::Build(g, regions).value();
    ExpectFlagsMatchFullGraphSearches(g, kd.Partition(g));
  }
}

TEST(ArcFlagOracleTest, MatchesWithSeveralTreesOnOneRoot) {
  // Core: the ring 0 - 1 - 2 - 3 - 0. Node 0 carries three trees
  // (4 - 5, 6, and 7 - {8, 9}). Region 2 has sources in two of them,
  // region 3 only in the last, region 1 in the first and at the root.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 3);
  AddBoth(&arcs, 1, 2, 2);
  AddBoth(&arcs, 2, 3, 4);
  AddBoth(&arcs, 3, 0, 1);
  AddBoth(&arcs, 0, 4, 2);
  AddBoth(&arcs, 4, 5, 1);
  AddBoth(&arcs, 0, 6, 5);
  AddBoth(&arcs, 0, 7, 1);
  AddBoth(&arcs, 7, 8, 2);
  AddBoth(&arcs, 7, 9, 3);
  const graph::Graph g = FromArcs(10, arcs);
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({1, 0, 0, 1, 1, 2, 2, 0, 2, 3}, 4));
}

TEST(ArcFlagOracleTest, MatchesWithBordersOnDifferentBranchesOfOneTree) {
  // The tree 2 - 3 - {4 - 5, 6 - {7, 8}} hangs off the triangle
  // 0 - 1 - 2 and node 0 carries the tree 0 - 9 - 10. Border nodes sit
  // on several sub-branches below 3 and in the other tree.
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
  AddBoth(&arcs, 0, 9, 1);
  AddBoth(&arcs, 9, 10, 4);
  const graph::Graph g = FromArcs(11, arcs);
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 0, 0, 0, 0, 1, 0, 2, 1, 0, 2}, 3));
}

TEST(ArcFlagOracleTest, MatchesWithOneWayTreeArcs) {
  // Square core 0 - 1 - 2 - 3 - 0. Node 1's tree is one-way down
  // (1 -> 4 -> 5), so no backward search from 4 or 5 reaches the root;
  // node 3's is one-way up (7 -> 6 -> 3), and node 0's mixes both
  // (0 -> 8, 8 - 9, 10 -> 8).
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
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 0, 1, 1, 1, 2, 2, 0, 0, 2, 1}, 3));
}

TEST(ArcFlagOracleTest, MatchesWithZeroWeightAndParallelArcs) {
  // Zero-weight arcs tie distances in the core and in the trees, and
  // parallel arcs of different weights sit in both, the lighter one first
  // or last in input order; the flag goes on the lightest arc to the
  // search parent.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 0);
  AddBoth(&arcs, 1, 2, 2);
  AddBoth(&arcs, 0, 3, 2);
  AddBoth(&arcs, 3, 2, 0);
  AddBoth(&arcs, 1, 3, 2);
  arcs.push_back({0, 1, 5});
  AddBoth(&arcs, 2, 4, 0);
  AddBoth(&arcs, 4, 5, 3);
  arcs.push_back({4, 5, 1});
  AddBoth(&arcs, 4, 6, 0);
  arcs.push_back({3, 7, 0});
  arcs.push_back({3, 7, 4});
  AddBoth(&arcs, 7, 8, 0);
  const graph::Graph g = FromArcs(9, arcs);
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 1, 0, 1, 2, 0, 1, 2, 0}, 3));
}

TEST(ArcFlagOracleTest, MatchesOnAComponentThatIsATree) {
  // A tree 0 - 1 - {2, 3 - 4} with an empty 2-core, a one-way two-node
  // path 5 -> 6, and an isolated node 7.
  std::vector<graph::EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 2);
  AddBoth(&arcs, 1, 2, 1);
  AddBoth(&arcs, 1, 3, 3);
  AddBoth(&arcs, 3, 4, 1);
  arcs.push_back({5, 6, 2});
  const graph::Graph g = FromArcs(8, arcs);
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 1, 0, 1, 2, 2, 0, 1}, 3));
}

TEST(ArcFlagOracleTest, MatchesOnRandomTreeHeavyGraphs) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testing_support::PartitionedGraph pg =
        testing_support::RandomTreeHeavyGraph(seed);
    ExpectFlagsMatchFullGraphSearches(pg.g, pg.part);
  }
}

// The cases below pin the flags on chains, the runs of nodes with two
// distinct neighbours between junctions: a backward search reaches a chain
// interior from the chain's two ends, and ties between them must resolve
// as the plain search's pop order does.

TEST(ArcFlagOracleTest, MatchesAtAChainMeetingPoint) {
  // The search toward 0 reaches 1 and 2 at distance 1 each; the chain
  // 1 - 3 - 6 - 5 - 4 - 7 - 2 between them meets at the border node 5,
  // reached at 4 through 6 and through 4. Node 4 pops before 6, so 5's
  // flag toward 0 goes on its arc to 4. Node 8 makes 0, 1 and 2 junctions.
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
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({1, 0, 0, 3, 4, 2, 3, 4, 0}, 5));
}

TEST(ArcFlagOracleTest, MatchesWithTwoEqualChainsIntoOneNode) {
  // Junctions 0 and 1 are joined by an arc of 10 and two chains of total
  // 3, 0 - 2 - 5 - 1 and 0 - 3 - 4 - 1. The border nodes are 0, 1 and the
  // leaves 6 and 7 on them. Toward 0, 1 is relaxed through 5 first, but 4
  // pops before 5, so 1's flag toward 0 goes on its arc to 4; toward 1, 2
  // pops before 3, so 0's goes on its arc to 2.
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
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 0, 0, 0, 0, 0, 2, 1}, 3));
}

TEST(ArcFlagOracleTest, MatchesWithOneWayAndZeroWeightChains) {
  // Junctions 0 and 5 (joined by an arc of 4) and three chains between
  // them: 0 -> 1 -> 2 -> 5 one way; 0 - 3 - 4 - 5 whose zero-weight step
  // 3 - 4 makes 3 and 4 junctions; and 5 - 6 - 7 - 0 where 6 -> 7 has no
  // arc back.
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
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 1, 1, 2, 2, 0, 3, 3}, 4));
}

TEST(ArcFlagOracleTest, MatchesWithParallelArcsInAChain) {
  // Junctions 0 and 1, joined by an arc of 6 and two chains; the chain
  // 0 - 2 - 3 - 1 has parallel arcs 2 -> 3 of 3 and 1 (the flag goes on
  // the lighter) and a single 3 -> 2 of 2.
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
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 1, 2, 3, 2}, 4));
}

TEST(ArcFlagOracleTest, MatchesWithAChainFromANodeToItself) {
  // Junction 0 carries two loops, 0 - 1 - 2 - 3 - 0 (2 is reached at
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
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 1, 2, 1, 3, 3}, 4));
}

TEST(ArcFlagOracleTest, MatchesOnACycleWithoutJunctions) {
  // A ring 0 - 1 - 2 - 3 - 4 - 0 of nodes with two neighbours each and a
  // one-way ring 5 -> 6 -> 7 -> 5.
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
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 0, 1, 1, 2, 0, 1, 2}, 3));
}

TEST(ArcFlagOracleTest, MatchesWithARootInsideAChain) {
  // Junctions 0 and 1 (an arc and the chain 0 - 5 - 1 between them) and
  // the chain 0 - 2 - 3 - 4 - 1. The pendant tree 3 - 6 - 7 hangs from the
  // chain interior 3, so the searches from 6 and 7 start at 3; 4 reaches
  // 3 at 3 directly, and at 4 around through 1, 0 and 2.
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
  ExpectFlagsMatchFullGraphSearches(
      g, partition::MakePartitioning({0, 0, 0, 0, 1, 0, 0, 2}, 3));
}

TEST(ArcFlagOracleTest, MatchesOnRandomChainHeavyGraphs) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testing_support::PartitionedGraph pg =
        testing_support::RandomChainHeavyGraph(seed);
    ExpectFlagsMatchFullGraphSearches(pg.g, pg.part);
  }
}

TEST(ArcFlagOracleTest, MatchesOnRandomChainHeavyGraphsWithZeros) {
  // Zero-weight arcs turn chain nodes into junctions and tie junctions at
  // one distance, where the pop order is no longer by id.
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testing_support::PartitionedGraph pg =
        testing_support::RandomChainHeavyGraph(seed, /*min_weight=*/0);
    ExpectFlagsMatchFullGraphSearches(pg.g, pg.part);
  }
}

// Every query on the random tree-heavy graphs, whose parallel arcs come in
// either weight order, answers with Dijkstra's distance.
TEST(ArcFlagTest, AllPairsMatchDijkstraOnRandomTreeHeavyGraphs) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const testing_support::PartitionedGraph pg =
        testing_support::RandomTreeHeavyGraph(seed);
    auto idx = ArcFlagIndex::Build(pg.g, pg.part.node_region,
                                   pg.part.num_regions);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    SearchWorkspace truth, ws;
    for (graph::NodeId s = 0; s < pg.g.num_nodes(); ++s) {
      DijkstraAll(pg.g, s, truth);
      for (graph::NodeId t = 0; t < pg.g.num_nodes(); ++t) {
        ASSERT_EQ(idx->Query(pg.g, s, t, ws).dist, truth.DistTo(t))
            << "seed " << seed << ": " << s << "->" << t;
      }
    }
  }
}

TEST(ArcFlagOracleTest, MatchesOnGermany) {
  const graph::Graph g =
      graph::MakeNetwork(graph::FindNetwork("Germany").value(), 0.1).value();
  for (uint32_t regions : {16u, 32u}) {
    SCOPED_TRACE(::testing::Message() << regions << " regions");
    auto kd = partition::KdTreePartitioner::Build(g, regions).value();
    ExpectFlagsMatchFullGraphSearches(g, kd.Partition(g));
  }
}

// A random graph of one-way arcs only: a ring through a random order of
// the nodes (so every node reaches every other) plus random chords, none
// with its reverse, at random positions.
graph::Graph OneWayNetwork(uint32_t nodes, uint32_t chords, uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Point> coords(nodes);
  for (graph::Point& p : coords) {
    p = {static_cast<double>(rng.NextBounded(10000)),
         static_cast<double>(rng.NextBounded(10000))};
  }
  std::vector<graph::NodeId> order(nodes);
  for (graph::NodeId v = 0; v < nodes; ++v) order[v] = v;
  for (size_t i = nodes - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBounded(i + 1)]);
  }
  std::vector<std::vector<uint8_t>> linked(nodes,
                                           std::vector<uint8_t>(nodes, 0));
  std::vector<graph::EdgeTriplet> arcs;
  auto add = [&](graph::NodeId a, graph::NodeId b) {
    if (a == b || linked[a][b] || linked[b][a]) return;
    linked[a][b] = 1;
    arcs.push_back({a, b, static_cast<graph::Weight>(1 + rng.NextBounded(9))});
  };
  for (uint32_t i = 0; i < nodes; ++i) add(order[i], order[(i + 1) % nodes]);
  for (uint32_t i = 0; i < chords; ++i) {
    add(static_cast<graph::NodeId>(rng.NextBounded(nodes)),
        static_cast<graph::NodeId>(rng.NextBounded(nodes)));
  }
  return graph::Graph::Build(std::move(coords), arcs).value();
}

class ArcFlagOneWayTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArcFlagOneWayTest, QueryMatchesDijkstra) {
  // A query enters its target region at the head of a crossing arc. On a
  // one-way network that head need not be the tail of any crossing arc,
  // so the flags toward its region must come from a search from it.
  const graph::Graph g = OneWayNetwork(120, 120, GetParam());
  auto kd = partition::KdTreePartitioner::Build(g, 8).value();
  const partition::Partitioning part = kd.Partition(g);
  auto idx = ArcFlagIndex::Build(g, part.node_region, 8).value();
  SearchWorkspace truth, ws;
  for (graph::NodeId s = 0; s < g.num_nodes(); s += 3) {
    DijkstraAll(g, s, truth);
    for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(idx.Query(g, s, t, ws).dist, truth.DistTo(t))
          << s << "->" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArcFlagOneWayTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace airindex::algo
