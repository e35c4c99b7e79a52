#ifndef AIRINDEX_ALGO_ASTAR_H_
#define AIRINDEX_ALGO_ASTAR_H_

#include <cstddef>

#include "algo/dijkstra.h"
#include "algo/search_workspace.h"
#include "graph/types.h"

namespace airindex::algo {

/// A* search (§2.1): Dijkstra whose heap keys are increased by an admissible
/// lower bound LB(v, target) on the remaining graph distance. With the
/// always-zero bound it degenerates to plain Dijkstra. The Landmark method
/// supplies ALT bounds; the paper otherwise assumes no a-priori bounds exist
/// in general road networks.
///
/// Generic over the same graph concept as DijkstraSearch. `lower_bound(v)`
/// must be admissible. Nodes are re-expanded whenever their tentative
/// distance improves (stale heap entries are skipped), so the search stays
/// exact even for admissible-but-inconsistent bounds — which arise in the
/// broadcast Landmark client when some distance vectors were lost and fall
/// back to a zero bound (§6.2). With a consistent bound every node still
/// expands exactly once.
///
/// Runs inside the caller-provided workspace; read the result through
/// ws.DistTo(target) / ws.settled() or ExtractPath(ws, ...). Expansion
/// order is a pure function of the inputs: ties on (f, g) break by node id
/// (SearchWorkspace::AStarItem), so any heap implementation produces the
/// same search.
template <typename G, typename LowerBound>
void AStarSearch(const G& g, NodeId source, NodeId target,
                 LowerBound lower_bound, SearchWorkspace& ws) {
  ws.BeginSearch(g.num_nodes());
  if (source >= g.num_nodes()) return;  // see DijkstraSearch
  auto& heap = ws.astar_heap();
  ws.TryImprove(source, 0, kInvalidNode);
  heap.push({static_cast<Dist>(lower_bound(source)), 0, source});

  while (!heap.empty()) {
    auto [f, gv, v] = heap.top();
    heap.pop();
    if (gv != ws.TentativeDist(v)) continue;  // stale entry
    ws.CountSettled();
    if (v == target) break;
    for (const auto& arc : g.OutArcs(v)) {
      const Dist nd = gv + arc.weight;
      if (ws.TryImprove(arc.to, nd, v)) {
        heap.push({nd + static_cast<Dist>(lower_bound(arc.to)), nd, arc.to});
      }
    }
  }
}

/// A* in a caller-provided workspace, materializing the path.
template <typename G, typename LowerBound>
Path AStarPath(const G& g, NodeId source, NodeId target,
               LowerBound lower_bound, SearchWorkspace& ws,
               size_t* settled_out = nullptr) {
  AStarSearch(g, source, target, lower_bound, ws);
  if (settled_out != nullptr) *settled_out = ws.settled();
  return ExtractPath(ws, source, target);
}

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_ASTAR_H_
