#include "core/partial_graph.h"

#include <gtest/gtest.h>

#include "algo/dijkstra.h"
#include "broadcast/serialization.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

broadcast::NodeRecord RecordOf(const graph::Graph& g, graph::NodeId v) {
  broadcast::NodeRecord rec;
  rec.id = v;
  rec.coord = g.Coord(v);
  rec.arcs.assign(g.OutArcs(v).begin(), g.OutArcs(v).end());
  return rec;
}

TEST(PartialGraphTest, EmptyKnowsNothing) {
  PartialGraph pg;
  EXPECT_EQ(pg.known_count(), 0u);
  EXPECT_FALSE(pg.Has(0));
  EXPECT_TRUE(pg.OutArcs(5).empty());
}

TEST(PartialGraphTest, AddRecordMakesNodeKnown) {
  graph::Graph g = SmallNetwork(100, 160, 1);
  PartialGraph pg;
  pg.AddRecord(RecordOf(g, 10));
  EXPECT_TRUE(pg.Has(10));
  EXPECT_FALSE(pg.Has(9));
  EXPECT_EQ(pg.OutArcs(10).size(), g.OutDegree(10));
}

TEST(PartialGraphTest, DuplicateReceiptIsIdempotent) {
  graph::Graph g = SmallNetwork(100, 160, 2);
  PartialGraph pg;
  pg.AddRecord(RecordOf(g, 3));
  const size_t mem = pg.MemoryBytes();
  pg.AddRecord(RecordOf(g, 3));
  EXPECT_EQ(pg.MemoryBytes(), mem);
  EXPECT_EQ(pg.known_count(), 1u);
}

TEST(PartialGraphTest, FullGraphDijkstraMatchesOriginal) {
  graph::Graph g = SmallNetwork(200, 320, 3);
  PartialGraph pg;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    pg.AddRecord(RecordOf(g, v));
  }
  algo::SearchWorkspace ws;
  for (auto [s, t] : testing_support::RandomPairs(g, 10, 4)) {
    algo::DijkstraSearch(pg, s, t, KnownEdgeFilter{&pg}, ws);
    EXPECT_EQ(ws.DistTo(t), algo::DijkstraPath(g, s, t).dist);
  }
}

TEST(PartialGraphTest, KnownEdgeFilterSkipsUnreceivedHeads) {
  graph::Graph g = SmallNetwork(100, 160, 5);
  PartialGraph pg;
  pg.AddRecord(RecordOf(g, 0));
  // Only node 0 known: Dijkstra must not escape through its arcs.
  algo::SearchWorkspace ws;
  algo::DijkstraSearch(pg, 0, graph::kInvalidNode, KnownEdgeFilter{&pg}, ws);
  EXPECT_EQ(ws.settled(), 1u);
}

TEST(PartialGraphTest, MemoryGrowsWithContent) {
  graph::Graph g = SmallNetwork(100, 160, 6);
  PartialGraph pg;
  size_t prev = pg.MemoryBytes();
  for (graph::NodeId v = 0; v < 10; ++v) {
    pg.AddRecord(RecordOf(g, v));
    EXPECT_GT(pg.MemoryBytes(), prev);
    prev = pg.MemoryBytes();
  }
}

// A zero-out-degree record must be safely addressable even while the arc
// pool has no chunks at all.
TEST(PartialGraphTest, ZeroArcRecordBeforeAnyPoolChunk) {
  PartialGraph pg;
  broadcast::NodeRecord rec;
  rec.id = 7;
  rec.coord = {1.0, 2.0};
  pg.AddRecord(rec);
  EXPECT_TRUE(pg.Has(7));
  EXPECT_TRUE(pg.OutArcs(7).empty());
  EXPECT_EQ(pg.MemoryBytes(), PartialGraph::kModeledNodeBytes);
}

// The modeled client charge is a paper-level constant, independent of the
// pooled storage the process actually uses: 24 bytes per node record,
// 8 per adjacency entry, exactly as before the chunked-pool refactor.
TEST(PartialGraphTest, ModeledMemoryChargeUnchangedByPooledStorage) {
  static_assert(PartialGraph::kModeledNodeBytes == 24);
  static_assert(PartialGraph::kModeledArcBytes == 8);
  graph::Graph g = SmallNetwork(100, 160, 7);
  PartialGraph pg;
  pg.AddRecord(RecordOf(g, 4));
  pg.AddRecord(RecordOf(g, 5));
  EXPECT_EQ(pg.MemoryBytes(),
            2 * 24 + (g.OutDegree(4) + g.OutDegree(5)) * 8);
}

TEST(PartialGraphTest, ResetForgetsEverythingInO1) {
  graph::Graph g = SmallNetwork(100, 160, 8);
  PartialGraph pg;
  for (graph::NodeId v = 0; v < 20; ++v) pg.AddRecord(RecordOf(g, v));
  pg.Reset();
  EXPECT_EQ(pg.known_count(), 0u);
  EXPECT_EQ(pg.arc_count(), 0u);
  EXPECT_EQ(pg.MemoryBytes(), 0u);
  for (graph::NodeId v = 0; v < 20; ++v) {
    EXPECT_FALSE(pg.Has(v)) << v;
    EXPECT_TRUE(pg.OutArcs(v).empty()) << v;
  }
}

// A reused PartialGraph must behave exactly like a fresh one: same
// adjacency, same coords, same search results — across many resets and
// differently-shaped ingests (the QueryScratch reuse pattern).
TEST(PartialGraphTest, ReuseAcrossResetsMatchesFresh) {
  graph::Graph g = SmallNetwork(200, 320, 9);
  PartialGraph reused;
  for (int round = 0; round < 5; ++round) {
    reused.Reset();
    PartialGraph fresh;
    // Ingest a round-dependent subset in a round-dependent order.
    for (graph::NodeId v = round; v < g.num_nodes();
         v += 1 + static_cast<graph::NodeId>(round)) {
      reused.AddRecord(RecordOf(g, v));
      fresh.AddRecord(RecordOf(g, v));
    }
    EXPECT_EQ(reused.known_count(), fresh.known_count());
    EXPECT_EQ(reused.arc_count(), fresh.arc_count());
    EXPECT_EQ(reused.MemoryBytes(), fresh.MemoryBytes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(reused.Has(v), fresh.Has(v)) << v;
      auto a = reused.OutArcs(v);
      auto b = fresh.OutArcs(v);
      ASSERT_EQ(a.size(), b.size()) << v;
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].to, b[i].to);
        ASSERT_EQ(a[i].weight, b[i].weight);
      }
    }
  }
}

// OutArcs spans must stay valid while later records grow the pool (the
// search iterates spans long after ingest, and chunks must never move).
TEST(PartialGraphTest, SpansStableAcrossPoolGrowth) {
  graph::Graph g = SmallNetwork(400, 640, 10);
  PartialGraph pg;
  pg.AddRecord(RecordOf(g, 0));
  auto early = pg.OutArcs(0);
  const graph::Graph::Arc* data = early.data();
  for (graph::NodeId v = 1; v < g.num_nodes(); ++v) {
    pg.AddRecord(RecordOf(g, v));
  }
  auto late = pg.OutArcs(0);
  EXPECT_EQ(late.data(), data);
  ASSERT_EQ(late.size(), g.OutDegree(0));
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT_EQ(late[i].to, g.OutArcs(0)[i].to);
  }
}

}  // namespace
}  // namespace airindex::core
