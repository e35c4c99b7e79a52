#ifndef AIRINDEX_CORE_BORDER_PRECOMPUTE_H_
#define AIRINDEX_CORE_BORDER_PRECOMPUTE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "partition/partitioning.h"

namespace airindex::core {

/// The server-side pre-computation shared by EB and NR (§4.1, §5.1): one
/// Dijkstra per border node, restricted to border-node targets, yields
///  * min/max border-to-border distances per ordered region pair
///    (EB's array A),
///  * the set of regions traversed by any recorded border-pair shortest
///    path, per ordered region pair (NR's needed-region sets),
///  * the cross-border / local node classification (EB's §4.1 tuning-time
///    optimization).
///
/// The paper precomputes paths between border nodes of *different* regions;
/// we additionally include same-region border pairs, which defines the
/// diagonal of A and keeps both methods exact when source and destination
/// fall into the same region (see docs/reproduction.md).
struct BorderPrecompute {
  partition::Partitioning part;
  partition::BorderInfo borders;
  uint32_t num_regions = 0;

  /// Row-major R x R: min/max distance from any border node of R_i to any
  /// border node of R_j (kInfDist / 0 when either region has no border).
  std::vector<graph::Dist> min_rr;
  std::vector<graph::Dist> max_rr;

  /// Region-traversal bitsets: words_per_pair() little-endian 64-bit words
  /// per ordered region pair, bit k set iff some recorded shortest path
  /// between border(R_i) and border(R_j) passes through region k.
  std::vector<uint64_t> traversed;

  /// Per node: appears on at least one recorded border-pair shortest path
  /// (the rest are "local" nodes).
  std::vector<uint8_t> cross_border;

  /// Wall time of the pre-computation (Table 3).
  double seconds = 0.0;

  size_t words_per_pair() const { return (num_regions + 63) / 64; }

  graph::Dist MinDist(graph::RegionId i, graph::RegionId j) const {
    return min_rr[static_cast<size_t>(i) * num_regions + j];
  }
  graph::Dist MaxDist(graph::RegionId i, graph::RegionId j) const {
    return max_rr[static_cast<size_t>(i) * num_regions + j];
  }

  bool TraversesRegion(graph::RegionId i, graph::RegionId j,
                       graph::RegionId k) const {
    const size_t base =
        (static_cast<size_t>(i) * num_regions + j) * words_per_pair();
    return (traversed[base + k / 64] >> (k % 64)) & 1;
  }

  /// NR's needed-region set for the ordered pair (i, j), as a bitset:
  /// writes words_per_pair() little-endian words into `words` — the
  /// traversal mask with bits i and j forced on (the endpoint regions are
  /// always needed). `words` must hold at least words_per_pair() entries.
  void NeededRegionsMask(graph::RegionId i, graph::RegionId j,
                         uint64_t* words) const;
};

/// Runs the pre-computation over the graph's pendant-forest decomposition
/// (graph::DecomposePendantForest) with the core's chains contracted
/// (graph::ContractChains), work-stealing chunks of root groups across up
/// to `num_threads` workers (0 = hardware concurrency). Border nodes are
/// grouped by the core node their pendant tree hangs from; each group
/// costs one search over the chain kernel from that root (seeded from the
/// two ends of its chain when the root is a chain interior), two sweeps
/// over its settle order and O(1) per chain interior with attached border
/// nodes: O((kernel nodes + arcs) log + targets) rather than a search over
/// the whole core. Each source adds a walk over its own tree and an
/// O(num_regions * words_per_pair()) row merge. The result equals one
/// full-graph search per border node (the test oracle). All merge steps
/// are commutative (min/max/bitwise-or), so the result is byte-identical
/// for every thread count, including serial.
Result<BorderPrecompute> ComputeBorderPrecompute(
    const graph::Graph& g, partition::Partitioning part,
    unsigned num_threads = 0);

/// ComputeBorderPrecompute, shared by graph content: returns the live
/// pre-computation of an equal graph (graph::Fingerprint plus node and arc
/// counts) under an identical partitioning when one exists, and computes a
/// new one otherwise. EB and NR build from the same pre-computation (the
/// paper's single "EB/NR" column of Table 3), so building both costs one.
///
/// The process-wide memo holds only weak references: a pre-computation
/// lives exactly as long as some caller (a built system) keeps the returned
/// pointer, and after that an equal graph recomputes. Thread-safe; a miss
/// computes outside the memo's lock, so two racing callers may both
/// compute (the results are byte-identical). `num_threads` never affects
/// the result and is not part of the match.
Result<std::shared_ptr<const BorderPrecompute>> SharedBorderPrecompute(
    const graph::Graph& g, partition::Partitioning part,
    unsigned num_threads = 0);

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_BORDER_PRECOMPUTE_H_
