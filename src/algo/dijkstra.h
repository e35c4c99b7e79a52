#ifndef AIRINDEX_ALGO_DIJKSTRA_H_
#define AIRINDEX_ALGO_DIJKSTRA_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "algo/search_workspace.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace airindex::algo {

using graph::Dist;
using graph::Graph;
using graph::kInfDist;
using graph::kInvalidNode;
using graph::NodeId;
using graph::Path;

/// Accept-everything edge filter.
struct AllEdges {
  template <typename Arc>
  bool operator()(NodeId, const Arc&) const {
    return true;
  }
};

/// Generic Dijkstra over any graph type exposing
///   size_t num_nodes() const
///   <range of {to, weight}> OutArcs(NodeId) const
/// (satisfied by graph::Graph and by the client-side PartialGraph).
///
/// Runs inside the caller-provided workspace (O(1) per-search reset, no
/// allocation in steady state); read results through ws.DistTo /
/// ws.ParentOf / ws.settled(), valid until the workspace's next search.
///
/// `target`: stop as soon as this node is settled (kInvalidNode = settle
/// everything). `edge_filter(from, arc)` returning false skips an arc; it is
/// how ArcFlag restricts the search and how clients ignore adjacency entries
/// pointing at nodes they never received.
template <typename G, typename EdgeFilter>
void DijkstraSearch(const G& g, NodeId source, NodeId target,
                    EdgeFilter edge_filter, SearchWorkspace& ws) {
  ws.BeginSearch(g.num_nodes());
  // A source the graph does not hold (a client that never received its
  // region) reaches nothing.
  if (source >= g.num_nodes()) return;
  auto& heap = ws.heap();
  ws.TryImprove(source, 0, kInvalidNode);
  heap.push({0, source});

  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    if (d != ws.TentativeDist(v)) continue;  // stale entry
    ws.CountSettled();
    if (v == target) break;
    for (const auto& arc : g.OutArcs(v)) {
      if (!edge_filter(v, arc)) continue;
      Dist nd = d + arc.weight;
      if (ws.TryImprove(arc.to, nd, v)) heap.push({nd, arc.to});
    }
  }
}

/// Full single-source Dijkstra (settles every reachable node) in the
/// caller's workspace.
template <typename G>
void DijkstraAll(const G& g, NodeId source, SearchWorkspace& ws) {
  DijkstraSearch(g, source, kInvalidNode, AllEdges{}, ws);
}

/// Walks the parent chain of the workspace's current search (from
/// `source`) backwards from `target`. Returns an unreachable Path if target
/// was not reached.
Path ExtractPath(const SearchWorkspace& ws, NodeId source, NodeId target);

/// Point-to-point shortest path on a full graph: the paper's baseline
/// query, and the reference the tests check every other search against,
/// the workload ground truth (graph::DistanceOracle) included.
template <typename G>
Path DijkstraPath(const G& g, NodeId source, NodeId target) {
  SearchWorkspace ws;
  DijkstraSearch(g, source, target, AllEdges{}, ws);
  return ExtractPath(ws, source, target);
}

/// Sums edge weights along `nodes`, verifying each hop exists in `g`.
/// Returns kInfDist if some hop is missing — used by tests and by clients to
/// sanity-check reconstructed paths.
Dist PathLength(const Graph& g, const std::vector<NodeId>& nodes);

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_DIJKSTRA_H_
