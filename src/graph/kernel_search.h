#ifndef AIRINDEX_GRAPH_KERNEL_SEARCH_H_
#define AIRINDEX_GRAPH_KERNEL_SEARCH_H_

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "algo/d_ary_heap.h"
#include "graph/graph.h"
#include "graph/pendant_forest.h"
#include "graph/types.h"

namespace airindex::graph {

/// One Dijkstra over a ChainKernel, from a node of the graph it contracts,
/// that reproduces the plain search over that graph: the same distances
/// and the same shortest-path tree, ties included. Every settled kernel
/// node gets its final distance and parent link, and a chain interior
/// follows from its chain's two ends. A source inside a chain walks out to
/// both ends, which seed the search. docs/perf.md ("Why the arrays stay
/// byte-identical") argues the tie rule. Reused across runs; allocates
/// nothing in steady state.
class KernelSearch {
 public:
  /// How the search reached a kernel node: from kernel node `from` over
  /// kernel arc `arc` (ChainKernel::ArcIndex), a plain arc
  /// (chain == kNoChain) or `chain` travelled from its end `side`. With
  /// from == kInvalidNode (and `arc` meaningless): the source itself
  /// (chain == kNoChain), or the end `side` of the source's own chain,
  /// reached by the walk from the source.
  struct Via {
    NodeId from = kInvalidNode;
    uint32_t chain : 31 = ChainKernel::kNoChain;
    uint32_t side : 1 = 0;
    uint32_t arc = 0;
  };

  /// How the search reaches a chain interior at position p: at `dist`
  /// (kInfDist: not at all), from its chain neighbour on `side` (0:
  /// position p - 1, 1: position p + 1). `from_source`: along the
  /// source's own chain straight from the source, not through an end.
  struct InteriorReach {
    Dist dist = kInfDist;
    uint8_t side = 0;
    bool from_source = false;
  };

  explicit KernelSearch(const ChainKernel& kernel);

  /// Searches from `source` until every kernel node in `targets` (distinct
  /// kernel ids) has settled or none is left to settle.
  void Run(NodeId source, std::span<const NodeId> targets);
  /// Searches from `source` until none is left to settle.
  void RunAll(NodeId source);

  /// Kernel ids in the order they settled.
  std::span<const NodeId> settled() const { return settled_; }
  /// Final for a settled kernel node.
  Dist dist(NodeId k) const { return dist_[k]; }
  const Via& via(NodeId k) const { return via_[k]; }

  /// The chain the source lies inside (kNoChain for a kernel node) and its
  /// position there.
  uint32_t source_chain() const { return source_chain_; }
  uint32_t source_position() const { return source_position_; }

  /// How interior position p of chain c is reached. Needs both ends of c
  /// settled or unreached: after RunAll, or with both among Run's targets.
  /// The source's own position reads dist 0, from_source.
  InteriorReach Interior(uint32_t c, uint32_t p) const;

  /// For a chain other than source_chain(), under Interior's condition:
  /// how many of its interiors, counted from end 0 and from end 1, are
  /// reached from that end's side. Distance rises strictly away from the
  /// end a node is reached from, so each side's part is one run from its
  /// end; a binary search over the chain finds where the two meet.
  std::array<uint32_t, 2> Runs(uint32_t c) const;

 private:
  /// Where a node falls in the plain search's pop order, as far as parent
  /// ties need it. Nodes pop by distance. Within a distance, chain
  /// interiors pop in id order, and before a kernel node exactly when
  /// their id is below the largest kernel id popped at that distance up
  /// to and including that node. So an interior's key is (dist, its id, 0)
  /// and a kernel node's (dist, that largest id, its pop count). Without
  /// zero-weight arcs the middle term is the node's own id.
  struct PopKey {
    Dist dist = kInfDist;
    NodeId rank = kInvalidNode;
    uint32_t seq = 0;
    auto operator<=>(const PopKey&) const = default;
  };

  void Search(NodeId source, size_t remaining);
  void Relax(NodeId k, Dist d, const Via& via);
  /// Interior(c, p) for a chain other than the source's, its ends reached
  /// at de0 and de1.
  InteriorReach FromEnds(uint32_t c, uint32_t p, Dist de0, Dist de1) const;
  /// The key of the node a parent link leaves from: `from` itself, or the
  /// last interior of the chain it comes along.
  PopKey LinkKey(const Via& via) const;
  /// The key of position p of the source's chain, reached by the walk.
  PopKey WalkKey(uint32_t p) const;
  /// The key of position p of chain c reached from its end `side`, that
  /// end reached at `end_dist`.
  PopKey ChainKey(uint32_t c, int side, uint32_t p, Dist end_dist) const;

  const ChainKernel* kernel_;
  algo::DAryHeap<std::pair<Dist, NodeId>> heap_;
  std::vector<NodeId> settled_;
  std::vector<Dist> dist_;
  std::vector<Via> via_;
  std::vector<PopKey> popped_;
  std::vector<uint8_t> pending_;
  NodeId source_ = kInvalidNode;
  uint32_t source_chain_ = ChainKernel::kNoChain;
  uint32_t source_position_ = 0;
  /// For a source inside a chain: per position, the distance from the
  /// source along the chain.
  std::vector<Dist> walk_dist_;
};

/// Exact point-to-point distances over a graph, answered on its chain
/// kernel. A node's pendant tree meets the rest of the network only at its
/// root (graph::PendantForest), so a path between two trees runs s -> its
/// root -> the other root -> t, and a path inside one tree is the tree
/// path. The part between the roots is one KernelSearch over the core's
/// ChainKernel, stopped once the target root is known: at its kernel node,
/// or at the two ends of the chain it lies inside. The oracle is immutable
/// once built and shared by every thread; each thread queries through a
/// Searcher of its own.
class DistanceOracle {
 public:
  explicit DistanceOracle(const Graph& g);
  // Searchers point into the kernel.
  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  /// One thread's reusable query state: a KernelSearch and a per-node mark
  /// for the tree walk. Allocates nothing in steady state.
  class Searcher {
   public:
    explicit Searcher(const DistanceOracle& oracle);

    /// The shortest-path distance s -> t, kInfDist when t is unreachable.
    Dist Distance(NodeId s, NodeId t);

   private:
    /// s -> t for two nodes of one pendant tree: up from s to their lowest
    /// common ancestor, then down to t.
    Dist TreeDistance(NodeId s, NodeId t);

    const DistanceOracle* oracle_;
    KernelSearch search_;
    std::vector<uint8_t> marked_;
  };

 private:
  /// Per node: the core id of its root, its PendantForest parent (the
  /// walk toward the root), and the arcs to and from that parent.
  std::vector<NodeId> root_core_id_;
  std::vector<NodeId> parent_;
  std::vector<Dist> up_step_;
  std::vector<Dist> down_step_;
  ChainKernel kernel_;
};

}  // namespace airindex::graph

#endif  // AIRINDEX_GRAPH_KERNEL_SEARCH_H_
