#ifndef AIRINDEX_GRAPH_GRAPH_H_
#define AIRINDEX_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/result.h"
#include "common/status.h"
#include "graph/types.h"

namespace airindex::graph {

/// A directed weighted road network stored in CSR (compressed sparse row)
/// form: contiguous adjacency, O(1) out-edge span per node. Immutable after
/// construction; build via `Graph::Build` or `GraphBuilder`.
///
/// Terminology follows §2.1 of the paper: nodes carry Euclidean coordinates,
/// edges carry a non-negative weight. Road networks in the paper are
/// symmetric (every road usable in both directions), which the generator
/// guarantees, but the class itself supports arbitrary directed graphs.
class Graph {
 public:
  /// One outgoing edge in an adjacency span.
  struct Arc {
    NodeId to;
    Weight weight;
  };

  Graph() = default;

  /// Builds a graph from node coordinates and directed edge triplets.
  /// Rejects out-of-range endpoints and self-loops.
  static Result<Graph> Build(std::vector<Point> coords,
                             const std::vector<EdgeTriplet>& edges);

  size_t num_nodes() const { return coords_.size(); }
  size_t num_arcs() const { return arcs_.size(); }

  /// Outgoing arcs of `v` as a contiguous span.
  std::span<const Arc> OutArcs(NodeId v) const {
    return {arcs_.data() + offsets_[v],
            arcs_.data() + offsets_[v + 1]};
  }

  size_t OutDegree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// CSR position of `arc`, which must be an element of some OutArcs span
  /// of this graph (per-arc side tables such as ArcFlag's are indexed so).
  size_t ArcIndex(const Arc& arc) const {
    return static_cast<size_t>(&arc - arcs_.data());
  }

  const Point& Coord(NodeId v) const { return coords_[v]; }
  const std::vector<Point>& coords() const { return coords_; }

  /// The transpose graph (all arcs reversed). Needed by backward searches
  /// (ArcFlag flag computation, Landmark "from" distances).
  Graph Reversed() const;

  /// In-memory footprint in bytes (CSR arrays + coordinates); used by the
  /// device memory model.
  size_t MemoryBytes() const;

  /// True if every node can reach every other node (the catalog generator
  /// guarantees this; loaders verify it before index construction).
  bool IsStronglyConnected() const;

 private:
  friend uint64_t Fingerprint(const Graph& g);

  // CSR arrays are 64-byte aligned (SoA, one cache line per array start) so
  // sequential arc scans at million-node scale never straddle lines shared
  // with other allocations. Coordinates stay a plain vector: Build moves the
  // caller's vector in without a copy, and coords() exposes it as-is.
  AlignedVector<uint32_t> offsets_;  // size num_nodes()+1
  AlignedVector<Arc> arcs_;
  std::vector<Point> coords_;
};

/// 64-bit content hash of `g`: node and arc counts, every CSR offset, every
/// arc's (to, weight) and every coordinate's bit pattern, in O(n + m). Equal
/// graphs hash equal wherever they live, so caches of derived structures
/// key on it instead of on a graph's address (which a freed graph's
/// successor can reuse).
uint64_t Fingerprint(const Graph& g);

/// Incremental edge-list builder (convenience wrapper over Graph::Build).
class GraphBuilder {
 public:
  /// Adds a node at the given coordinates, returning its id.
  NodeId AddNode(Point p) {
    coords_.push_back(p);
    return static_cast<NodeId>(coords_.size() - 1);
  }

  /// Adds a directed arc.
  void AddArc(NodeId from, NodeId to, Weight w) {
    edges_.push_back({from, to, w});
  }

  /// Adds both directions (road networks are symmetric in the paper).
  void AddBidirectional(NodeId a, NodeId b, Weight w) {
    AddArc(a, b, w);
    AddArc(b, a, w);
  }

  size_t num_nodes() const { return coords_.size(); }
  size_t num_edges() const { return edges_.size(); }

  Result<Graph> Build() && {
    return Graph::Build(std::move(coords_), edges_);
  }

 private:
  std::vector<Point> coords_;
  std::vector<EdgeTriplet> edges_;
};

}  // namespace airindex::graph

#endif  // AIRINDEX_GRAPH_GRAPH_H_
