#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/dijkstra.h"
#include "algo/search_workspace.h"
#include "graph/catalog.h"
#include "graph/kernel_search.h"
#include "graph/pendant_forest.h"
#include "testing/test_graphs.h"

namespace airindex::graph {
namespace {

using testing_support::AddBoth;
using testing_support::FromArcs;

/// Checks the oracle against a full Dijkstra from every `source_step`-th
/// source to every target; returns the number of pairs checked.
size_t ExpectMatchesDijkstra(const Graph& g, NodeId source_step = 1) {
  const DistanceOracle oracle(g);
  DistanceOracle::Searcher searcher(oracle);
  algo::SearchWorkspace truth;
  size_t pairs = 0;
  for (NodeId s = 0; s < g.num_nodes(); s += source_step) {
    algo::DijkstraAll(g, s, truth);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_EQ(searcher.Distance(s, t), truth.DistTo(t))
          << s << " -> " << t;
      ++pairs;
    }
  }
  return pairs;
}

TEST(DistanceOracleTest, MatchesDijkstraOnRandomTreeHeavyGraphs) {
  size_t pairs = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    pairs +=
        ExpectMatchesDijkstra(testing_support::RandomTreeHeavyGraph(seed).g);
  }
  EXPECT_GT(pairs, 100'000u);
}

TEST(DistanceOracleTest, MatchesDijkstraOnRandomChainHeavyGraphs) {
  size_t pairs = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    pairs +=
        ExpectMatchesDijkstra(testing_support::RandomChainHeavyGraph(seed).g);
  }
  EXPECT_GT(pairs, 50'000u);
}

TEST(DistanceOracleTest, MatchesDijkstraOnRandomChainHeavyGraphsWithZeros) {
  size_t pairs = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    pairs += ExpectMatchesDijkstra(
        testing_support::RandomChainHeavyGraph(seed, /*min_weight=*/0).g);
  }
  EXPECT_GT(pairs, 50'000u);
}

// Every replica: all targets from about 24 sources spread over the ids.
TEST(DistanceOracleTest, MatchesDijkstraOnCatalogReplicas) {
  for (const NetworkSpec& spec : PaperNetworks()) {
    SCOPED_TRACE(spec.name);
    const Graph g = MakeNetwork(spec, 0.02).value();
    const auto step = static_cast<NodeId>(
        std::max<size_t>(1, g.num_nodes() / 24));
    EXPECT_GT(ExpectMatchesDijkstra(g, step), 0u);
  }
}

// Core: the triangle 0 - 1 - 2. A tree hangs from 0: 0 - 3, 3 - 4 and
// 3 - 5, one-way 3 -> 6 (6 reaches nothing), and one-way 7 -> 3 (nothing
// reaches 7). Up and down weights differ on every tree arc.
Graph TreeOnTriangle() {
  std::vector<EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 5);
  AddBoth(&arcs, 1, 2, 5);
  AddBoth(&arcs, 2, 0, 5);
  arcs.push_back({0, 3, 1});
  arcs.push_back({3, 0, 2});
  arcs.push_back({3, 4, 3});
  arcs.push_back({4, 3, 4});
  arcs.push_back({3, 5, 6});
  arcs.push_back({5, 3, 8});
  arcs.push_back({3, 6, 9});
  arcs.push_back({7, 3, 10});
  return FromArcs(8, arcs);
}

TEST(DistanceOracleTest, SameTreeBelowTheRoot) {
  const Graph g = TreeOnTriangle();
  const PendantForest forest = DecomposePendantForest(g);
  ASSERT_EQ(forest.root[4], 0u);
  ASSERT_EQ(forest.root[5], 0u);
  ASSERT_EQ(forest.parent[4], 3u);
  ASSERT_EQ(forest.parent[5], 3u);
  const DistanceOracle oracle(g);
  DistanceOracle::Searcher searcher(oracle);
  // The lowest common ancestor is 3, below the root 0.
  EXPECT_EQ(searcher.Distance(4, 5), 4u + 6u);
  EXPECT_EQ(searcher.Distance(5, 4), 8u + 3u);
  EXPECT_EQ(searcher.Distance(4, 6), 4u + 9u);
  EXPECT_EQ(searcher.Distance(7, 4), 10u + 3u);
  EXPECT_EQ(searcher.Distance(4, 4), 0u);
  ExpectMatchesDijkstra(g);
}

TEST(DistanceOracleTest, AnEndpointIsTheRoot) {
  const Graph g = TreeOnTriangle();
  const DistanceOracle oracle(g);
  DistanceOracle::Searcher searcher(oracle);
  EXPECT_EQ(searcher.Distance(0, 4), 1u + 3u);
  EXPECT_EQ(searcher.Distance(4, 0), 4u + 2u);
  EXPECT_EQ(searcher.Distance(0, 6), 1u + 9u);
  // Through the root to the rest of the core, and back in.
  EXPECT_EQ(searcher.Distance(4, 1), 4u + 2u + 5u);
  EXPECT_EQ(searcher.Distance(2, 5), 5u + 1u + 6u);
}

TEST(DistanceOracleTest, OneWayTreeArcsLeaveUnreachablePairs) {
  const Graph g = TreeOnTriangle();
  const DistanceOracle oracle(g);
  DistanceOracle::Searcher searcher(oracle);
  // 6 only has the arc in, 7 only the arc out.
  EXPECT_EQ(searcher.Distance(6, 3), kInfDist);
  EXPECT_EQ(searcher.Distance(6, 1), kInfDist);
  EXPECT_EQ(searcher.Distance(4, 7), kInfDist);
  EXPECT_EQ(searcher.Distance(1, 7), kInfDist);
  EXPECT_EQ(searcher.Distance(6, 7), kInfDist);
  EXPECT_EQ(searcher.Distance(7, 6), 10u + 9u);
  EXPECT_EQ(searcher.Distance(7, 2), 10u + 2u + 5u);
  ExpectMatchesDijkstra(g);
}

// Hubs 0 and 1 joined three ways: the chain 0 - 2 - 3 - 4 - 1 with a heavy
// middle arc, and the two-arc chains 0 - 5 - 1 and 0 - 6 - 1. Hub 0 also
// carries the loop 0 - 7 - 8 - 9 - 0, a chain from a node to itself.
Graph HubsAndChains() {
  std::vector<EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 2, 1);
  AddBoth(&arcs, 2, 3, 50);
  AddBoth(&arcs, 3, 4, 1);
  AddBoth(&arcs, 4, 1, 1);
  AddBoth(&arcs, 0, 5, 2);
  AddBoth(&arcs, 5, 1, 2);
  AddBoth(&arcs, 0, 6, 3);
  AddBoth(&arcs, 6, 1, 3);
  AddBoth(&arcs, 0, 7, 1);
  AddBoth(&arcs, 7, 8, 2);
  AddBoth(&arcs, 8, 9, 4);
  AddBoth(&arcs, 9, 0, 1);
  return FromArcs(10, arcs);
}

TEST(DistanceOracleTest, BothEndpointsOnOneChain) {
  const Graph g = HubsAndChains();
  const PendantForest forest = DecomposePendantForest(g);
  ASSERT_EQ(forest.core_nodes.size(), g.num_nodes());
  const ChainKernel kernel = ContractChains(forest.core);
  ASSERT_NE(kernel.chain_of[2], ChainKernel::kNoChain);
  ASSERT_EQ(kernel.chain_of[2], kernel.chain_of[3]);
  const DistanceOracle oracle(g);
  DistanceOracle::Searcher searcher(oracle);
  // Around the heavy arc, through both hubs, and straight along the chain.
  EXPECT_EQ(searcher.Distance(2, 3), 1u + 4u + 1u + 1u);
  EXPECT_EQ(searcher.Distance(3, 2), 1u + 1u + 4u + 1u);
  EXPECT_EQ(searcher.Distance(3, 4), 1u);
  EXPECT_EQ(searcher.Distance(4, 3), 1u);
  ExpectMatchesDijkstra(g);
}

TEST(DistanceOracleTest, ChainFromANodeToItself) {
  const Graph g = HubsAndChains();
  const ChainKernel kernel = ContractChains(DecomposePendantForest(g).core);
  const uint32_t loop = kernel.chain_of[8];
  ASSERT_NE(loop, ChainKernel::kNoChain);
  ASSERT_EQ(kernel.chains[loop].ends[0], kernel.chains[loop].ends[1]);
  const DistanceOracle oracle(g);
  DistanceOracle::Searcher searcher(oracle);
  // Along the loop each way, and into it from outside.
  EXPECT_EQ(searcher.Distance(7, 9), 1u + 1u);
  EXPECT_EQ(searcher.Distance(7, 8), 2u);
  EXPECT_EQ(searcher.Distance(8, 9), 4u);
  EXPECT_EQ(searcher.Distance(1, 8), 4u + 1u + 2u);
  ExpectMatchesDijkstra(g);
}

// Two components: the tree 0 - 1 - 2 with 1 - 3 and a one-way 4 -> 3, and
// the cycle 5 - 6 - 7 - 5, which has no kernel node of its own.
TEST(DistanceOracleTest, TreeAndCycleComponents) {
  std::vector<EdgeTriplet> arcs;
  AddBoth(&arcs, 0, 1, 2);
  AddBoth(&arcs, 1, 2, 3);
  AddBoth(&arcs, 1, 3, 4);
  arcs.push_back({4, 3, 5});
  AddBoth(&arcs, 5, 6, 1);
  AddBoth(&arcs, 6, 7, 1);
  AddBoth(&arcs, 7, 5, 3);
  const Graph g = FromArcs(8, arcs);
  const PendantForest forest = DecomposePendantForest(g);
  ASSERT_EQ(forest.root[0], forest.root[4]);
  const DistanceOracle oracle(g);
  DistanceOracle::Searcher searcher(oracle);
  EXPECT_EQ(searcher.Distance(0, 2), 2u + 3u);
  EXPECT_EQ(searcher.Distance(4, 0), 5u + 4u + 2u);
  EXPECT_EQ(searcher.Distance(0, 4), kInfDist);
  EXPECT_EQ(searcher.Distance(7, 6), 1u);
  EXPECT_EQ(searcher.Distance(5, 7), 2u);
  EXPECT_EQ(searcher.Distance(0, 5), kInfDist);
  EXPECT_EQ(searcher.Distance(6, 3), kInfDist);
  ExpectMatchesDijkstra(g);
}

}  // namespace
}  // namespace airindex::graph
