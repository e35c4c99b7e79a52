#ifndef AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_
#define AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_

#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "partition/partitioning.h"

namespace airindex::testing_support {

/// A small strongly-connected synthetic road network for tests.
inline graph::Graph SmallNetwork(uint32_t nodes = 400, uint32_t edges = 640,
                                 uint64_t seed = 1234) {
  graph::GeneratorOptions opts;
  opts.num_nodes = nodes;
  opts.num_edges = edges;
  opts.seed = seed;
  opts.extent = 10000.0;
  return graph::GenerateRoadNetwork(opts).value();
}

/// Random distinct (source, target) pairs.
inline std::vector<std::pair<graph::NodeId, graph::NodeId>> RandomPairs(
    const graph::Graph& g, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    auto s = static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
    auto t = static_cast<graph::NodeId>(rng.NextBounded(g.num_nodes()));
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

/// Builds a graph over `num_nodes` nodes from directed arcs (from, to, w).
inline graph::Graph FromArcs(size_t num_nodes,
                             const std::vector<graph::EdgeTriplet>& arcs) {
  std::vector<graph::Point> coords(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    coords[i] = {static_cast<double>(i), 0.0};
  }
  return graph::Graph::Build(std::move(coords), arcs).value();
}

/// Adds a -> b and b -> a, both of weight w.
inline void AddBoth(std::vector<graph::EdgeTriplet>* arcs, graph::NodeId a,
                    graph::NodeId b, graph::Weight w) {
  arcs->push_back({a, b, w});
  arcs->push_back({b, a, w});
}

struct PartitionedGraph {
  graph::Graph g;
  partition::Partitioning part;
};

/// A small random graph that is mostly a tree with a few extra arcs:
/// 8 to 47 nodes, random weights including 0, one-way and parallel arcs,
/// and 2 to 5 regions that mostly follow the tree, so runs of non-border
/// nodes lie between border nodes. Exercises the pendant-tree paths of
/// the pre-computations.
inline PartitionedGraph RandomTreeHeavyGraph(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 8 + rng.NextBounded(40);
  std::vector<graph::EdgeTriplet> arcs;
  auto add = [&](graph::NodeId a, graph::NodeId b) {
    const auto w = static_cast<graph::Weight>(rng.NextBounded(4));
    switch (rng.NextBounded(6)) {
      case 0: arcs.push_back({a, b, w}); break;
      case 1: arcs.push_back({b, a, w}); break;
      case 2:
        AddBoth(&arcs, a, b, w);
        arcs.push_back({a, b, w + 1});
        break;
      default: AddBoth(&arcs, a, b, w); break;
    }
  };
  const uint32_t regions = 2 + static_cast<uint32_t>(rng.NextBounded(4));
  std::vector<graph::RegionId> node_region(n);
  node_region[0] = 0;
  for (graph::NodeId v = 1; v < n; ++v) {
    const auto parent = static_cast<graph::NodeId>(rng.NextBounded(v));
    add(parent, v);
    node_region[v] =
        rng.NextBounded(4) == 0
            ? static_cast<graph::RegionId>(rng.NextBounded(regions))
            : node_region[parent];
  }
  for (uint64_t extra = rng.NextBounded(4); extra > 0; --extra) {
    const auto a = static_cast<graph::NodeId>(rng.NextBounded(n));
    const auto b = static_cast<graph::NodeId>(rng.NextBounded(n));
    if (a != b) add(a, b);
  }
  return {FromArcs(n, arcs),
          partition::MakePartitioning(std::move(node_region), regions)};
}

}  // namespace airindex::testing_support

#endif  // AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_
