#ifndef AIRINDEX_CORE_SUPER_EDGE_H_
#define AIRINDEX_CORE_SUPER_EDGE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/region_data.h"
#include "graph/types.h"

namespace airindex::core {

/// Memory-bound client processing (§6.1): instead of retaining every
/// received region, the client immediately collapses a region into
/// *super-edges* — shortest-path distances between the region's border
/// nodes, computed inside the region's received data — and keeps only those
/// plus the original arcs that cross region boundaries ("border edges").
/// The final search runs Dijkstra on the resulting overlay graph G'
/// (Fig. 8), whose size is a small fraction of the raw regions.
///
/// For the source/target regions the query endpoints are added to the
/// border-node set, exactly as the paper prescribes.
class SuperEdgeProcessor {
 public:
  SuperEdgeProcessor(graph::NodeId source, graph::NodeId target)
      : source_(source), target_(target) {}

  /// Ingests one region's received data; the caller may free the data
  /// afterwards. Runs |anchors| local Dijkstras within the region.
  void AddRegion(const RegionData& data);

  /// Shortest-path distance source -> target over G'. Exact (equals the
  /// full-graph distance) when the ingested regions cover the true path,
  /// which EB/NR pruning guarantees.
  graph::Dist Solve() const;

  /// Client memory held by the overlay (the paper's ~35% peak reduction
  /// comes from this replacing the raw region data).
  size_t MemoryBytes() const {
    return overlay_arc_count_ * 16 + overlay_.size() * 16;
  }

 private:
  void AddOverlayArc(graph::NodeId from, graph::NodeId to, graph::Dist d);

  graph::NodeId source_;
  graph::NodeId target_;
  /// G' adjacency: anchors (border nodes + endpoints) and crossing-arc
  /// heads, keyed by global node id.
  std::unordered_map<graph::NodeId,
                     std::vector<std::pair<graph::NodeId, graph::Dist>>>
      overlay_;
  size_t overlay_arc_count_ = 0;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_SUPER_EDGE_H_
