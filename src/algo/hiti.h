#ifndef AIRINDEX_ALGO_HITI_H_
#define AIRINDEX_ALGO_HITI_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "partition/kd_tree.h"
#include "partition/partitioning.h"

namespace airindex::algo {

/// HiTi (Jung & Pramanik; §2.1): the graph is partitioned into cells whose
/// sub-graphs are recursively merged into a binary hierarchy (we reuse the
/// kd-tree hierarchy, whose leaves are the partition regions). For every
/// sub-graph at every level, the shortest-path distances among its border
/// nodes ("super-edges") are pre-computed bottom-up. A query searches the
/// union of (a) the fully-detailed leaf regions of source and target and
/// (b) the super-edge graphs of the maximal sub-trees that contain neither,
/// which is exact and touches only O(border) nodes elsewhere.
///
/// In the broadcast setting HiTi is the one classic index that supports
/// selective tuning, but its super-edge tables are several times larger than
/// the network itself (Table 1) and must be received in full, which is what
/// rules it out on real devices (Table 2).
class HiTiIndex {
 public:
  /// Creates an empty index (populate via Build or FromTables).
  HiTiIndex() = default;

  /// Super-edge table of one hierarchy sub-graph (heap node).
  struct SubgraphInfo {
    /// Border nodes of the sub-graph, ascending global ids.
    std::vector<graph::NodeId> border;
    /// Row-major |border| x |border| shortest-path distance matrix within
    /// the sub-graph (kInfDist when disconnected inside it).
    std::vector<graph::Dist> dmat;
    /// Row-major first-hop matrix: the node following border[i] on the
    /// recorded shortest path to border[j] inside the sub-graph
    /// (kInvalidNode on the diagonal / when unreachable). HiTi materializes
    /// path views, not just distances, which is a large part of its index
    /// volume (§3.2, Table 1).
    std::vector<graph::NodeId> next_hop;
  };

  /// Builds the index bottom-up over the kd hierarchy. One local Dijkstra
  /// per (sub-graph, border node) pair, on up to `num_threads` workers
  /// (0 = one per available CPU).
  static Result<HiTiIndex> Build(const graph::Graph& g,
                                 const partition::KdTreePartitioner& kd,
                                 unsigned num_threads = 0);

  uint32_t num_regions() const { return num_regions_; }

  /// Exact point-to-point distance via the hierarchy overlay search. `G`
  /// is the graph concept of DijkstraSearch: graph::Graph, or a client's
  /// partial graph holding the two leaf regions' and the border nodes'
  /// arcs.
  template <typename G>
  graph::Dist QueryDistance(const G& g, graph::NodeId s,
                            graph::NodeId t) const;

  /// Super-edge table of heap node `heap` (1-based; leaves are
  /// num_regions()..2*num_regions()-1).
  const SubgraphInfo& Info(uint32_t heap) const { return subs_[heap]; }

  /// Serialized size of all super-edge tables when broadcast:
  /// per sub-graph 4 bytes (border count) + 4 bytes per border id + 8 bytes
  /// per cell (distance + first hop). Drives the HiTi row of Table 1.
  size_t IndexBytes() const;

  /// In-memory footprint of the tables (what a client must hold, §3.2).
  size_t MemoryBytes() const;

  const partition::Partitioning& partitioning() const { return part_; }

  /// Reassembles an index from deserialized tables (client side of the
  /// broadcast adaptation). `subs` must have 2*num_regions entries with
  /// entry 0 unused.
  static HiTiIndex FromTables(uint32_t num_regions,
                              partition::Partitioning part,
                              std::vector<SubgraphInfo> subs);

 private:
  /// True iff region r belongs to the sub-tree rooted at heap node h of a
  /// complete binary tree with `num_regions` leaves (leaf of region r has
  /// heap index num_regions + r).
  static bool RegionUnder(graph::RegionId r, uint32_t h,
                          uint32_t num_regions) {
    uint32_t leaf = num_regions + r;
    while (leaf > h) leaf >>= 1;
    return leaf == h;
  }

  uint32_t num_regions_ = 0;
  partition::Partitioning part_;
  /// subs_[heap] for heap in [1, 2*num_regions); subs_[0] unused.
  std::vector<SubgraphInfo> subs_;
};

template <typename G>
graph::Dist HiTiIndex::QueryDistance(const G& g, graph::NodeId s,
                                     graph::NodeId t) const {
  using graph::Dist;
  using graph::NodeId;
  const uint32_t R = num_regions_;
  const graph::RegionId rs = part_.node_region[s];
  const graph::RegionId rt = part_.node_region[t];

  // Ancestor set of the two leaves (heap indexes R + rs and R + rt).
  std::vector<uint8_t> is_ancestor(2 * R, 0);
  for (uint32_t h = R + rs; h >= 1; h >>= 1) is_ancestor[h] = 1;
  for (uint32_t h = R + rt; h >= 1; h >>= 1) is_ancestor[h] = 1;

  // Used super-edge sub-graphs: maximal sub-trees containing neither leaf.
  std::vector<uint32_t> used;
  for (uint32_t h = 2; h < 2 * R; ++h) {
    if (!is_ancestor[h] && is_ancestor[h / 2]) used.push_back(h);
  }

  // Overlay adjacency keyed by global node id.
  std::unordered_map<NodeId, std::vector<std::pair<NodeId, Dist>>> adj;
  auto add_arc = [&adj](NodeId a, NodeId b, Dist w) {
    adj[a].emplace_back(b, w);
  };

  // Full detail inside the two leaf regions (arcs may exit toward border
  // nodes of used sub-graphs, which are present in the overlay).
  for (graph::RegionId r : {rs, rt}) {
    for (NodeId v : part_.region_nodes[r]) {
      for (const auto& arc : g.OutArcs(v)) {
        add_arc(v, arc.to, arc.weight);
      }
    }
    if (rs == rt) break;
  }

  // Super-edges of used sub-graphs plus their outgoing crossing arcs.
  for (uint32_t h : used) {
    const SubgraphInfo& sub = subs_[h];
    const size_t nb = sub.border.size();
    for (size_t i = 0; i < nb; ++i) {
      for (size_t j = 0; j < nb; ++j) {
        const Dist d = sub.dmat[i * nb + j];
        if (i != j && d != graph::kInfDist) {
          add_arc(sub.border[i], sub.border[j], d);
        }
      }
      for (const auto& arc : g.OutArcs(sub.border[i])) {
        if (!RegionUnder(part_.node_region[arc.to], h, R)) {
          add_arc(sub.border[i], arc.to, arc.weight);
        }
      }
    }
  }

  // Plain Dijkstra over the overlay.
  std::unordered_map<NodeId, Dist> dist;
  using Item = std::pair<Dist, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[s] = 0;
  heap.emplace(0, s);
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    auto it = dist.find(v);
    if (it == dist.end() || it->second != d) continue;
    if (v == t) return d;
    auto adj_it = adj.find(v);
    if (adj_it == adj.end()) continue;
    for (auto [to, w] : adj_it->second) {
      auto [dit, inserted] = dist.try_emplace(to, d + w);
      if (!inserted && dit->second <= d + w) continue;
      dit->second = d + w;
      heap.emplace(d + w, to);
    }
  }
  return graph::kInfDist;
}

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_HITI_H_
