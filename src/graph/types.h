#ifndef AIRINDEX_GRAPH_TYPES_H_
#define AIRINDEX_GRAPH_TYPES_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace airindex::graph {

/// Node identifier: dense 0-based index into the graph.
using NodeId = uint32_t;
/// Region identifier assigned by a partitioner (paper's R1..Rn, 0-based).
using RegionId = uint32_t;
/// Weight of a single edge (length / travel time / toll; §2.1).
using Weight = uint32_t;
/// Accumulated shortest-path distance. 64-bit so sums can never overflow.
using Dist = uint64_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr RegionId kInvalidRegion =
    std::numeric_limits<RegionId>::max();
inline constexpr Dist kInfDist = std::numeric_limits<Dist>::max();

/// a + b, or kInfDist when either is (an unreachable leg).
inline constexpr Dist AddDist(Dist a, Dist b) {
  return a == kInfDist || b == kInfDist ? kInfDist : a + b;
}

/// Euclidean coordinates of a network node (paper's <id, x, y>).
struct Point {
  double x = 0.0;
  double y = 0.0;
};

/// A directed edge as supplied to the graph builder (paper's <id_i, id_j,
/// w_ij> triplet).
struct EdgeTriplet {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  Weight weight = 0;
};

/// A shortest path: node sequence from source to target (inclusive) plus its
/// total graph distance. An empty `nodes` with `dist == kInfDist` means
/// "unreachable".
struct Path {
  std::vector<NodeId> nodes;
  Dist dist = kInfDist;

  bool found() const { return dist != kInfDist; }
};

}  // namespace airindex::graph

#endif  // AIRINDEX_GRAPH_TYPES_H_
