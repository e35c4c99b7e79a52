#include "algo/arc_flags.h"

#include <mutex>

#include "algo/dijkstra.h"
#include "common/thread_pool.h"

namespace airindex::algo {

namespace {

/// Maps (from, to) pairs to CSR arc indexes via binary search in the sorted
/// adjacency span.
size_t ArcIndexOf(const graph::Graph& g, graph::NodeId from,
                  graph::NodeId to) {
  auto arcs = g.OutArcs(from);
  size_t lo = 0, hi = arcs.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (arcs[mid].to < to) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return g.ArcIndex(arcs[lo]);
}

}  // namespace

Result<ArcFlagIndex> ArcFlagIndex::Build(
    const graph::Graph& g, const std::vector<graph::RegionId>& node_region,
    uint32_t num_regions) {
  if (node_region.size() != g.num_nodes()) {
    return Status::InvalidArgument("node_region size mismatch");
  }
  if (num_regions == 0) {
    return Status::InvalidArgument("num_regions must be positive");
  }
  for (graph::RegionId r : node_region) {
    if (r >= num_regions) {
      return Status::InvalidArgument("region id out of range");
    }
  }

  ArcFlagIndex idx;
  idx.num_regions_ = num_regions;
  idx.words_per_arc_ = (num_regions + 63) / 64;
  idx.node_region_ = node_region;
  idx.flags_.assign(g.num_arcs() * idx.words_per_arc_, 0);

  // Intra-region flags: an arc whose head lies in R may always be needed to
  // reach R's interior.
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& arc : g.OutArcs(v)) {
      idx.SetArcFlag(g.ArcIndex(arc), node_region[arc.to]);
    }
  }

  // Border nodes: head of some arc that crosses regions.
  std::vector<graph::NodeId> border;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    bool is_border = false;
    for (const auto& arc : g.OutArcs(v)) {
      if (node_region[arc.to] != node_region[v]) {
        is_border = true;
        break;
      }
    }
    if (is_border) border.push_back(v);
  }

  graph::Graph rev = g.Reversed();

  // One backward Dijkstra per border node; each worker accumulates flags
  // locally, then merges under a mutex (flag OR is commutative).
  std::mutex merge_mu;
  ParallelFor(border.size(), [&](size_t bi) {
    const graph::NodeId b = border[bi];
    const graph::RegionId region = node_region[b];
    SearchTree tree = DijkstraAll(rev, b);
    std::vector<size_t> flagged;
    flagged.reserve(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      graph::NodeId p = tree.parent[v];
      if (p == graph::kInvalidNode) continue;
      // Reverse-tree arc p->v corresponds to forward arc v->p on a shortest
      // v -> b path.
      flagged.push_back(ArcIndexOf(g, v, p));
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    for (size_t a : flagged) idx.SetArcFlag(a, region);
  });

  return idx;
}

ArcFlagIndex ArcFlagIndex::MakeEmpty(size_t num_arcs, uint32_t num_regions,
                                     std::vector<graph::RegionId>
                                         node_region) {
  ArcFlagIndex idx;
  idx.num_regions_ = num_regions;
  idx.words_per_arc_ = (num_regions + 63) / 64;
  idx.node_region_ = std::move(node_region);
  idx.flags_.assign(num_arcs * idx.words_per_arc_, 0);
  return idx;
}

void ArcFlagIndex::SetAllFlags(size_t arc_index) {
  for (size_t w = 0; w < words_per_arc_; ++w) {
    flags_[arc_index * words_per_arc_ + w] = ~uint64_t{0};
  }
}

graph::Path ArcFlagIndex::Query(const graph::Graph& g, graph::NodeId s,
                                graph::NodeId t, SearchWorkspace& ws) const {
  const graph::RegionId target_region = node_region_[t];
  DijkstraSearch(
      g, s, t,
      [&](graph::NodeId, const graph::Graph::Arc& arc) {
        return ArcAllowed(g.ArcIndex(arc), target_region);
      },
      ws);
  return ExtractPath(ws, s, t);
}

graph::Path ArcFlagIndex::Query(const graph::Graph& g, graph::NodeId s,
                                graph::NodeId t, size_t* settled_out) const {
  SearchWorkspace ws;
  graph::Path path = Query(g, s, t, ws);
  if (settled_out != nullptr) *settled_out = ws.settled();
  return path;
}

}  // namespace airindex::algo
