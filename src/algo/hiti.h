#ifndef AIRINDEX_ALGO_HITI_H_
#define AIRINDEX_ALGO_HITI_H_

#include <cstdint>
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
  /// (0 = hardware concurrency).
  static Result<HiTiIndex> Build(const graph::Graph& g,
                                 const partition::KdTreePartitioner& kd,
                                 unsigned num_threads = 0);

  uint32_t num_regions() const { return num_regions_; }

  /// Exact point-to-point distance via the hierarchy overlay search.
  graph::Dist QueryDistance(const graph::Graph& g, graph::NodeId s,
                            graph::NodeId t, size_t* settled_out =
                                                  nullptr) const;

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

  uint32_t num_regions_ = 0;
  uint32_t depth_ = 0;
  partition::Partitioning part_;
  /// subs_[heap] for heap in [1, 2*num_regions); subs_[0] unused.
  std::vector<SubgraphInfo> subs_;
};

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_HITI_H_
