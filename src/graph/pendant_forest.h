#ifndef AIRINDEX_GRAPH_PENDANT_FOREST_H_
#define AIRINDEX_GRAPH_PENDANT_FOREST_H_

#include <array>
#include <cstdint>
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

/// A graph (in practice PendantForest::core) with its chains contracted.
/// A kernel node is a node whose number of distinct neighbours is not 2,
/// or that has a zero-weight arc in or out; a cycle component with no such
/// node keeps its smallest id as its kernel node. Every other node is a
/// chain interior: it lies inside exactly one chain, the run of interior
/// nodes between two kernel nodes (the two may be one node). Each chain
/// becomes one kernel arc, weighed its total, in each direction it can be
/// travelled end to end.
///
/// Chain interiors thus have positive arcs only, to their two chain
/// neighbours, so a search over the kernel finds every interior's
/// distance and shortest-path parent from the chain's two ends (see
/// graph::KernelSearch and docs/perf.md).
struct ChainKernel {
  /// Chain ids fit in 31 bits (see Arc).
  static constexpr uint32_t kNoChain = 0x7FFFFFFF;

  /// A chain's positions run from 0 to interior + 1: its ends are
  /// positions 0 and interior + 1, its interior nodes 1..interior in walk
  /// order. Position p's entries sit at slot begin + p of the per-slot
  /// arrays below.
  struct Chain {
    uint32_t begin = 0;
    uint32_t interior = 0;
    /// The kernel ids of positions 0 and interior + 1.
    std::array<NodeId, 2> ends = {kInvalidNode, kInvalidNode};
  };

  /// A kernel arc: the lightest arc between two kernel nodes
  /// (chain == kNoChain), or `chain` travelled from its end `side` (0: from
  /// position 0 up, 1: from position interior + 1 down) to the other end.
  struct Arc {
    NodeId to = kInvalidNode;
    uint32_t chain : 31 = kNoChain;
    uint32_t side : 1 = 0;
    Dist weight = 0;
  };

  /// Kernel nodes, ascending; a node's kernel id is its index here, so
  /// kernel ids keep the input ids' order.
  std::vector<NodeId> kernel_nodes;
  /// Per node: its kernel id, kInvalidNode for a chain interior.
  std::vector<NodeId> kernel_id;
  /// Per node: the chain it lies inside and its position there (kNoChain
  /// and 0 for a kernel node).
  std::vector<uint32_t> chain_of;
  std::vector<uint32_t> position;

  std::vector<Chain> chains;
  /// Per slot: the node at that chain position.
  std::vector<NodeId> path;
  /// Per slot and side: the chain distance from the side's end to the
  /// slot's node, kInfDist where a one-way arc breaks the way.
  std::array<std::vector<Dist>, 2> from_end;
  /// Per slot begin + p, p <= interior: the lightest arc p -> p + 1
  /// (side 0) and p + 1 -> p (side 1), kInfDist where there is none.
  std::array<std::vector<Dist>, 2> step;

  size_t num_nodes() const { return kernel_nodes.size(); }
  size_t num_arcs() const { return arcs_.size(); }

  std::span<const Arc> OutArcs(NodeId k) const {
    return {arcs_.data() + arc_offsets_[k], arcs_.data() + arc_offsets_[k + 1]};
  }

  /// The position of `arc`, an element of some OutArcs span, among all
  /// kernel arcs: an index in [0, num_arcs()).
  size_t ArcIndex(const Arc& arc) const {
    return static_cast<size_t>(&arc - arcs_.data());
  }

  /// The kernel id of chain c's end on `side`.
  NodeId End(uint32_t c, int side) const { return chains[c].ends[side]; }

 private:
  friend ChainKernel ContractChains(const Graph& g);

  std::vector<uint32_t> arc_offsets_;  // size num_nodes()+1
  std::vector<Arc> arcs_;
};

/// Contracts g's chains in O(n + m) (plus O(log degree) per chain step to
/// find its lightest arcs).
ChainKernel ContractChains(const Graph& g);

}  // namespace airindex::graph

#endif  // AIRINDEX_GRAPH_PENDANT_FOREST_H_
