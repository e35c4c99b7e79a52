#ifndef AIRINDEX_CORE_PARTIAL_GRAPH_H_
#define AIRINDEX_CORE_PARTIAL_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "broadcast/serialization.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::core {

/// The client-side picture of the network: adjacency lists of only the
/// nodes received so far, addressed by global node id. Adjacency entries may
/// point at nodes the client never received; searches skip those via
/// KnownEdgeFilter (such nodes cannot lie on the answer path by the pruning
/// arguments of §4/§5).
///
/// Storage is built for reuse across queries (core::QueryScratch): arcs
/// live in a chunked pool (fixed-size chunks that never reallocate, so
/// OutArcs spans stay valid while the pool grows) instead of one heap
/// vector per received node, and Reset() clears the graph by bumping a
/// generation stamp — O(1), keeping every allocation. A reused PartialGraph
/// therefore allocates nothing in steady state.
///
/// Satisfies the graph concept of algo::DijkstraSearch.
class PartialGraph {
 public:
  /// Modeled client memory charge per received node record: the §2.1
  /// <id, x, y> tuple plus an adjacency-list header. Matches the historical
  /// hand-written constant (24 bytes) — the *modeled* charge is a property
  /// of the paper's client, deliberately independent of how this process
  /// actually pools the storage.
  static constexpr size_t kModeledNodeBytes =
      sizeof(graph::Point) + sizeof(graph::NodeId) + sizeof(uint32_t);
  /// Modeled charge per adjacency entry: one <to, weight> pair.
  static constexpr size_t kModeledArcBytes = sizeof(graph::Graph::Arc);
  static_assert(kModeledNodeBytes == 24 && kModeledArcBytes == 8,
                "modeled client memory charges must not drift (the paper's "
                "figures and the golden metrics depend on them)");

  PartialGraph() = default;

  /// Forgets every received record in O(1), keeping all storage for reuse.
  void Reset();

  /// Ingests one decoded adjacency record. Duplicate receipt (e.g. a region
  /// received again during loss repair) is a no-op.
  void AddRecord(const broadcast::NodeRecord& rec);

  /// Makes every id below `n` addressable (not received unless a record
  /// says otherwise), so that num_nodes() >= n. A search that relaxes arcs
  /// into nodes never received (no KnownEdgeFilter) sizes its state by
  /// num_nodes() and needs it to cover every arc head.
  void ReserveNodes(size_t n);

  bool Has(graph::NodeId v) const {
    return v < node_gen_.size() && node_gen_[v] == generation_;
  }

  /// One past the largest node id the storage can address. High-water
  /// across reuses; per-query state is tracked by the generation stamps,
  /// so ids in [known ids, num_nodes()) simply read as not-received.
  size_t num_nodes() const { return entries_.size(); }
  size_t known_count() const { return known_count_; }
  size_t arc_count() const { return arc_count_; }

  std::span<const graph::Graph::Arc> OutArcs(graph::NodeId v) const {
    if (!Has(v)) return {};
    const NodeEntry& e = entries_[v];
    if (e.count == 0) return {};  // zero-arc record: no chunk backs it
    return {chunks_[e.chunk].data() + e.offset, e.count};
  }

  /// Point{} for a node not received, as in a graph rebuilt from records.
  graph::Point Coord(graph::NodeId v) const {
    return Has(v) ? coords_[v] : graph::Point{};
  }

  /// Client memory estimate: node table + adjacency entries. Matches the
  /// MemoryTracker charges the clients make.
  size_t MemoryBytes() const {
    return known_count_ * kModeledNodeBytes + arc_count_ * kModeledArcBytes;
  }

 private:
  /// Arcs per pool chunk; a record with a larger degree gets its own
  /// exactly-sized chunk so its span stays contiguous.
  static constexpr size_t kArcChunk = 4096;

  struct NodeEntry {
    uint32_t chunk = 0;
    uint32_t offset = 0;
    uint32_t count = 0;
  };

  /// The chunk the next record's arcs go into, guaranteed to have room for
  /// `need` more arcs. Chunks are reserved once and never reallocated, so
  /// previously returned OutArcs spans stay valid.
  std::vector<graph::Graph::Arc>& ChunkWithRoom(size_t need);

  std::vector<std::vector<graph::Graph::Arc>> chunks_;
  size_t active_chunk_ = 0;
  std::vector<NodeEntry> entries_;
  std::vector<graph::Point> coords_;
  std::vector<uint32_t> node_gen_;
  uint32_t generation_ = 1;
  size_t known_count_ = 0;
  size_t arc_count_ = 0;
};

/// Edge filter: follow an arc only if its head was received.
struct KnownEdgeFilter {
  const PartialGraph* g;
  bool operator()(graph::NodeId, const graph::Graph::Arc& arc) const {
    return g->Has(arc.to);
  }
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_PARTIAL_GRAPH_H_
