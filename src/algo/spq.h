#ifndef AIRINDEX_ALGO_SPQ_H_
#define AIRINDEX_ALGO_SPQ_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::algo {

/// Shortest-path quadtree (SPQ, Samet et al.; §2.1): every node v stores a
/// coloured region quadtree over the Euclidean coordinates of all other
/// nodes, where the colour of u is the incident arc of v that begins the
/// shortest path v -> u. A query repeatedly looks up the target's colour and
/// follows one arc, so each step is a point location.
///
/// The per-node quadtrees are collectively several times larger than the
/// network (Table 1), which is why the paper rules SPQ out on air.
class SpqIndex {
 public:
  /// One quadtree cell. Leaves carry the colour (arc ordinal at the owning
  /// node, or kNoColor for empty cells); internal cells carry 4 child
  /// indexes into the same vector.
  struct QtNode {
    static constexpr int32_t kLeaf = -1;
    static constexpr int32_t kNoColor = -1;
    int32_t child[4] = {kLeaf, kLeaf, kLeaf, kLeaf};
    int32_t color = kNoColor;
    bool is_leaf() const { return child[0] == kLeaf; }
  };

  /// Per-node quadtree (nodes[0] is the root).
  struct Tree {
    std::vector<QtNode> nodes;
  };

  /// Builds the full index: one all-targets Dijkstra plus one quadtree per
  /// node (on up to `num_threads` workers, 0 = one per available CPU).
  /// Memory grows with num_nodes * quadtree size, so use BuildSizeOnly for
  /// large networks when only the footprint matters.
  static Result<SpqIndex> Build(const graph::Graph& g,
                                unsigned num_threads = 0);

  /// Computes the serialized broadcast size of the index without retaining
  /// the trees (used for Table 1/2 at larger scales).
  static Result<size_t> BuildSizeOnly(const graph::Graph& g);

  /// First-hop arc ordinal at `v` for a target located at `p`, or
  /// QtNode::kNoColor if the cell is empty (never happens for real targets)
  /// or `v` has no tree (a client that never received it).
  int32_t ColorOf(graph::NodeId v, graph::Point p) const;

  /// Follows first-hop colours from s to t; exact shortest path. `G` is
  /// the graph concept of DijkstraSearch plus `Coord(NodeId)`: graph::Graph,
  /// or a client's partial graph, whose OutArcs(v)[c] is the arc the
  /// colour c names when it holds v's arcs in the server's order.
  template <typename G>
  graph::Path Query(const G& g, graph::NodeId s, graph::NodeId t) const {
    graph::Path path;
    path.nodes.push_back(s);
    graph::Dist total = 0;
    graph::NodeId cur = s;
    const graph::Point target = g.Coord(t);
    for (size_t step = 0; cur != t; ++step) {
      if (step > g.num_nodes()) return graph::Path{};  // corrupt index
      const int32_t color = ColorOf(cur, target);
      const auto arcs = g.OutArcs(cur);
      if (color < 0 || static_cast<size_t>(color) >= arcs.size()) {
        return graph::Path{};  // unreachable / corrupt
      }
      const auto& arc = arcs[color];
      total += arc.weight;
      cur = arc.to;
      path.nodes.push_back(cur);
    }
    path.dist = total;
    return path;
  }

  /// Serialized size: per quadtree cell 1 tag byte, plus 2 colour bytes for
  /// leaves. Drives the SPQ row of Table 1.
  size_t IndexBytes() const;

  size_t MemoryBytes() const;

  const Tree& TreeOf(graph::NodeId v) const { return trees_[v]; }

  /// Root cell bounds (serialized in the broadcast header).
  double root_min_x() const { return min_x_; }
  double root_min_y() const { return min_y_; }
  double root_size() const { return size_; }

  /// Reassembles an index from deserialized trees (client side of the
  /// broadcast adaptation).
  static SpqIndex FromParts(double min_x, double min_y, double size,
                            std::vector<Tree> trees);

 private:
  SpqIndex() = default;

  /// Serialized bytes of a single tree.
  static size_t TreeBytes(const Tree& tree);

  double min_x_ = 0, min_y_ = 0, size_ = 1;  // root cell (square)
  std::vector<Tree> trees_;
};

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_SPQ_H_
