#ifndef AIRINDEX_GRAPH_PENDANT_FOREST_H_
#define AIRINDEX_GRAPH_PENDANT_FOREST_H_

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::graph {

/// The split of a road network into its core and the trees that hang off
/// it. Repeatedly removing a node with at most one distinct neighbour
/// (out- and in-arcs counted together, so one-way and parallel arcs count
/// once) leaves the 2-core; every removed ("pendant") node lies in a tree
/// that touches the rest of the network at exactly one core node, its
/// root. A component that is a tree keeps one node, its last, as the core
/// node its other nodes hang from, so every pendant node has a root.
///
/// Because a pendant tree meets the rest of the network only at its root,
/// every path between the tree and the outside passes through the root,
/// and the path between two nodes of one tree is the tree path. Searches
/// over the whole network can therefore run over `core` alone and finish
/// with tree paths (see core::ComputeBorderPrecompute).
struct PendantForest {
  /// Core nodes, ascending; a node's core id is its index here.
  std::vector<NodeId> core_nodes;
  /// The core as a graph of its own: the arcs between core nodes, over
  /// core ids. Core ids keep the original ids' order, so a search over it
  /// pops nodes in the same (dist, node) order as over the full graph.
  Graph core;

  /// Per node: its core id, kInvalidNode for a pendant node.
  std::vector<NodeId> core_id;
  /// Per node: the core node its tree hangs from (itself for a core node).
  std::vector<NodeId> root;
  /// Per node: its neighbour toward the root (kInvalidNode for a core
  /// node).
  std::vector<NodeId> parent;
  /// Per node: the lightest arc parent -> v and v -> parent, kInfDist
  /// where no such arc exists (0 for a core node).
  std::vector<Dist> down_step;
  std::vector<Dist> up_step;
  /// Per node: tree distance root -> v and v -> root, kInfDist where a
  /// one-way arc breaks the path (0 for a core node).
  std::vector<Dist> down;
  std::vector<Dist> up;
  /// Pendant nodes in removal order: every node comes before its parent,
  /// so a forward sweep visits trees leaves-first and a reverse sweep
  /// root-first.
  std::vector<NodeId> peel_order;

  bool IsCore(NodeId v) const { return core_id[v] != kInvalidNode; }

  /// The pendant nodes whose parent is `v`, ascending.
  std::span<const NodeId> Children(NodeId v) const {
    return {children_.data() + child_offsets_[v],
            children_.data() + child_offsets_[v + 1]};
  }

 private:
  friend PendantForest DecomposePendantForest(const Graph& g);

  std::vector<NodeId> child_offsets_;  // size num_nodes()+1
  std::vector<NodeId> children_;
};

/// Computes the decomposition in O(n + m) (plus O(log degree) per pendant
/// node to find the arcs to its parent).
PendantForest DecomposePendantForest(const Graph& g);

}  // namespace airindex::graph

#endif  // AIRINDEX_GRAPH_PENDANT_FOREST_H_
