#include "graph/generator.h"

#include <gtest/gtest.h>

#include <set>

namespace airindex::graph {
namespace {

TEST(GeneratorTest, ExactCounts) {
  GeneratorOptions opts;
  opts.num_nodes = 500;
  opts.num_edges = 800;
  opts.seed = 42;
  auto g = GenerateRoadNetwork(opts);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_nodes(), 500u);
  EXPECT_EQ(g->num_arcs(), 1600u);  // two directed arcs per edge
}

TEST(GeneratorTest, StronglyConnected) {
  GeneratorOptions opts;
  opts.num_nodes = 300;
  opts.num_edges = 320;  // near-tree, the hardest case for connectivity
  opts.seed = 7;
  auto g = GenerateRoadNetwork(opts);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->IsStronglyConnected());
}

TEST(GeneratorTest, DeterministicForSeed) {
  GeneratorOptions opts;
  opts.num_nodes = 200;
  opts.num_edges = 300;
  opts.seed = 99;
  auto a = GenerateRoadNetwork(opts);
  auto b = GenerateRoadNetwork(opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->num_arcs(), b->num_arcs());
  for (NodeId v = 0; v < a->num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(a->Coord(v).x, b->Coord(v).x);
    auto arcs_a = a->OutArcs(v);
    auto arcs_b = b->OutArcs(v);
    ASSERT_EQ(arcs_a.size(), arcs_b.size());
    for (size_t i = 0; i < arcs_a.size(); ++i) {
      EXPECT_EQ(arcs_a[i].to, arcs_b[i].to);
      EXPECT_EQ(arcs_a[i].weight, arcs_b[i].weight);
    }
  }
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentGraphs) {
  GeneratorOptions a_opts;
  a_opts.num_nodes = 100;
  a_opts.num_edges = 150;
  a_opts.seed = 1;
  GeneratorOptions b_opts = a_opts;
  b_opts.seed = 2;
  auto a = GenerateRoadNetwork(a_opts);
  auto b = GenerateRoadNetwork(b_opts);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (NodeId v = 0; v < 100 && !any_diff; ++v) {
    any_diff = a->Coord(v).x != b->Coord(v).x;
  }
  EXPECT_TRUE(any_diff);
}

TEST(GeneratorTest, WeightsArePositive) {
  GeneratorOptions opts;
  opts.num_nodes = 200;
  opts.num_edges = 400;
  opts.seed = 5;
  auto g = GenerateRoadNetwork(opts);
  ASSERT_TRUE(g.ok());
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    for (const auto& arc : g->OutArcs(v)) {
      EXPECT_GE(arc.weight, 1u);
    }
  }
}

TEST(GeneratorTest, SymmetricArcs) {
  GeneratorOptions opts;
  opts.num_nodes = 150;
  opts.num_edges = 250;
  opts.seed = 6;
  auto g = GenerateRoadNetwork(opts);
  ASSERT_TRUE(g.ok());
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    for (const auto& arc : g->OutArcs(v)) {
      bool found_reverse = false;
      for (const auto& back : g->OutArcs(arc.to)) {
        if (back.to == v && back.weight == arc.weight) {
          found_reverse = true;
          break;
        }
      }
      EXPECT_TRUE(found_reverse) << v << "->" << arc.to;
    }
  }
}

TEST(GeneratorTest, NoDuplicateUndirectedEdges) {
  GeneratorOptions opts;
  opts.num_nodes = 100;
  opts.num_edges = 180;
  opts.seed = 8;
  auto g = GenerateRoadNetwork(opts);
  ASSERT_TRUE(g.ok());
  std::set<std::pair<NodeId, NodeId>> seen;
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    for (const auto& arc : g->OutArcs(v)) {
      EXPECT_TRUE(seen.emplace(v, arc.to).second)
          << "duplicate arc " << v << "->" << arc.to;
    }
  }
}

TEST(GeneratorTest, RejectsTooFewEdges) {
  GeneratorOptions opts;
  opts.num_nodes = 100;
  opts.num_edges = 50;
  EXPECT_FALSE(GenerateRoadNetwork(opts).ok());
}

TEST(GeneratorTest, RejectsTinyGraphs) {
  GeneratorOptions opts;
  opts.num_nodes = 1;
  opts.num_edges = 0;
  EXPECT_FALSE(GenerateRoadNetwork(opts).ok());
}

TEST(GeneratorTest, DenseNetworkSucceeds) {
  // Milan-style density (m/n ~ 1.9).
  GeneratorOptions opts;
  opts.num_nodes = 1000;
  opts.num_edges = 1915;
  opts.seed = 3;
  auto g = GenerateRoadNetwork(opts);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(g->IsStronglyConnected());
}

TEST(GeneratorTest, BridgesEveryComponent) {
  // One nearest neighbour per node leaves about a third of the nodes as
  // separate components after Kruskal, so the bridge step does most of the
  // work, and its unions re-root node 0's component.
  for (uint32_t n : {50u, 200u, 1000u}) {
    for (uint64_t seed : {1u, 3u, 7u}) {
      SCOPED_TRACE(::testing::Message() << n << " nodes, seed " << seed);
      GeneratorOptions opts;
      opts.num_nodes = n;
      opts.num_edges = n - 1;
      opts.seed = seed;
      opts.knn = 1;
      auto g = GenerateRoadNetwork(opts);
      ASSERT_TRUE(g.ok()) << g.status().ToString();
      EXPECT_EQ(g->num_nodes(), n);
      EXPECT_EQ(g->num_arcs(), 2 * size_t{n - 1});
      EXPECT_TRUE(g->IsStronglyConnected());
      std::set<std::pair<NodeId, NodeId>> edges;
      for (NodeId v = 0; v < g->num_nodes(); ++v) {
        for (const auto& arc : g->OutArcs(v)) {
          if (v < arc.to) {
            EXPECT_TRUE(edges.emplace(v, arc.to).second)
                << "duplicate edge " << v << " - " << arc.to;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace airindex::graph
