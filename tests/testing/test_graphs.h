#ifndef AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_
#define AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_

#include <algorithm>
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

/// A small random graph that is mostly chains: 2 to 7 hubs joined by 3 to
/// 10 links (some from a hub back to itself), each split into a chain of
/// up to 5 nodes, sometimes a ring with no hub, and a few pendant leaves.
/// Each step is two-way (often with different weights each way), one-way,
/// or two-way plus a parallel arc, with weights in [min_weight, 2], so
/// equal-distance ties are common. Node ids are shuffled so hubs and chain
/// nodes interleave; 2 to 5 regions, mostly one per link. Exercises the
/// chain contraction of the border pre-computation.
inline PartitionedGraph RandomChainHeavyGraph(uint64_t seed,
                                              graph::Weight min_weight = 1) {
  Rng rng(seed);
  const auto regions = static_cast<uint32_t>(2 + rng.NextBounded(4));
  auto random_region = [&] {
    return static_cast<graph::RegionId>(rng.NextBounded(regions));
  };
  auto weight = [&] {
    return static_cast<graph::Weight>(min_weight +
                                      rng.NextBounded(3 - min_weight));
  };
  std::vector<graph::RegionId> node_region;
  auto new_node = [&](graph::RegionId r) {
    node_region.push_back(r);
    return static_cast<graph::NodeId>(node_region.size() - 1);
  };
  std::vector<graph::EdgeTriplet> arcs;
  auto step = [&](graph::NodeId a, graph::NodeId b) {
    switch (rng.NextBounded(8)) {
      case 0: arcs.push_back({a, b, weight()}); break;
      case 1: arcs.push_back({b, a, weight()}); break;
      case 2:
        AddBoth(&arcs, a, b, weight());
        arcs.push_back({a, b, weight()});
        break;
      default:
        arcs.push_back({a, b, weight()});
        arcs.push_back({b, a, weight()});
        break;
    }
  };
  auto chain = [&](graph::NodeId a, graph::NodeId b, uint64_t len) {
    const graph::RegionId r = random_region();
    graph::NodeId prev = a;
    for (uint64_t i = 0; i < len; ++i) {
      const graph::NodeId v =
          new_node(rng.NextBounded(4) == 0 ? random_region() : r);
      step(prev, v);
      prev = v;
    }
    step(prev, b);
  };

  const uint64_t hubs = 2 + rng.NextBounded(6);
  for (uint64_t h = 0; h < hubs; ++h) new_node(random_region());
  for (uint64_t links = 3 + rng.NextBounded(8); links > 0; --links) {
    const auto a = static_cast<graph::NodeId>(rng.NextBounded(hubs));
    const auto b = static_cast<graph::NodeId>(rng.NextBounded(hubs));
    // A loop needs two chain nodes to be a cycle.
    chain(a, b, std::max<uint64_t>(rng.NextBounded(6), a == b ? 2 : 0));
  }
  if (rng.NextBounded(3) == 0) {
    const graph::NodeId ring = new_node(random_region());
    chain(ring, ring, 2 + rng.NextBounded(4));
  }
  for (uint64_t leaves = rng.NextBounded(4); leaves > 0; --leaves) {
    const auto at = static_cast<graph::NodeId>(
        rng.NextBounded(node_region.size()));
    step(at, new_node(random_region()));
  }

  const size_t n = node_region.size();
  std::vector<graph::NodeId> relabel(n);
  for (size_t v = 0; v < n; ++v) relabel[v] = static_cast<graph::NodeId>(v);
  for (size_t v = n; v > 1; --v) {
    std::swap(relabel[v - 1], relabel[rng.NextBounded(v)]);
  }
  for (graph::EdgeTriplet& arc : arcs) {
    arc.from = relabel[arc.from];
    arc.to = relabel[arc.to];
  }
  std::vector<graph::RegionId> region(n);
  for (size_t v = 0; v < n; ++v) region[relabel[v]] = node_region[v];
  return {FromArcs(n, arcs),
          partition::MakePartitioning(std::move(region), regions)};
}

}  // namespace airindex::testing_support

#endif  // AIRINDEX_TESTS_TESTING_TEST_GRAPHS_H_
