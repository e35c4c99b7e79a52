#ifndef AIRINDEX_GRAPH_GENERATOR_H_
#define AIRINDEX_GRAPH_GENERATOR_H_

#include <cstdint>

#include "common/result.h"
#include "graph/graph.h"

namespace airindex::graph {

/// Parameters for the synthetic road-network generator.
///
/// The paper evaluates on five real road networks that are not
/// redistributable here. The generator produces *planar-style* synthetic
/// replicas with a chosen node count and exact undirected edge count: nodes
/// are uniform random points, a Euclidean minimum-spanning-tree-style
/// backbone guarantees strong connectivity, and the remaining edge budget is
/// filled with the shortest unused nearest-neighbour links. Edge weights are
/// rounded Euclidean lengths, so the triangle-inequality locality that makes
/// road-network pruning work (short detours, metric-ish distances) is
/// preserved. See docs/reproduction.md (Substitutions).
struct GeneratorOptions {
  /// Number of nodes (> 1).
  uint32_t num_nodes = 1000;
  /// Number of undirected edges; each becomes two directed arcs.
  /// Must satisfy num_edges >= num_nodes - 1.
  uint32_t num_edges = 1200;
  /// PRNG seed; identical options => identical graph.
  uint64_t seed = 1;
  /// Side length of the square the points are drawn from.
  double extent = 100000.0;
  /// Nearest-neighbour candidates considered per node. Larger values allow
  /// denser networks; the default supports m/n ratios up to ~5.
  uint32_t knn = 12;
};

/// Generates a synthetic road network. Guarantees:
///  * exactly options.num_nodes nodes and 2*options.num_edges directed arcs,
///  * strong connectivity,
///  * no self-loops or duplicate undirected edges,
///  * every weight >= 1.
Result<Graph> GenerateRoadNetwork(const GeneratorOptions& options);

/// Parameters for the continental-scale generator (the million-node path).
///
/// Unlike GeneratorOptions (kNN candidates + Kruskal, with hashing and
/// sorting constants that bite at 1e6 nodes), this builds a road-like
/// network directly: a rectangular grid base layer (surface streets) plus
/// `highway_levels` shortcut overlays (level l adds row/column shortcuts of
/// stride 4^l at ~0.6x Euclidean weight — long-haul edges that Dijkstra
/// prefers, like motorways over surface streets). Node coordinates are cell
/// centres with seeded jitter; edge weights are Euclidean lengths scaled by
/// a seeded per-edge factor in [1 - weight_jitter, 1 + weight_jitter].
///
/// Every coordinate and weight is a pure hash of (seed, node/edge id) —
/// never a sequential PRNG draw — so generation parallelises over rows and
/// the result is byte-identical for any thread count.
struct GenSpec {
  /// Number of nodes (> 1). The grid is ceil(sqrt(n)) columns wide; a
  /// partial last row keeps the node count exact.
  uint32_t num_nodes = 1000000;
  /// Hash seed; identical (spec, seed) => byte-identical graph.
  uint64_t seed = 1;
  /// Highway shortcut levels stacked on the grid (0 = pure grid).
  uint32_t highway_levels = 2;
  /// Multiplicative weight jitter amplitude in [0, 1).
  double weight_jitter = 0.25;
  /// Side length of the square covered by the grid.
  double extent = 100000.0;
  /// Generator worker threads (0 = hardware concurrency). Output does not
  /// depend on this.
  unsigned threads = 0;
};

/// Generates a deterministic grid + highway-hierarchy road network.
/// Guarantees the same structural invariants as the GeneratorOptions
/// overload (exact node count, strong connectivity, no self-loops or
/// duplicate undirected edges, weights >= 1) and additionally that the
/// built graph is byte-identical across `threads` values.
Result<Graph> GenerateRoadNetwork(const GenSpec& spec);

}  // namespace airindex::graph

#endif  // AIRINDEX_GRAPH_GENERATOR_H_
