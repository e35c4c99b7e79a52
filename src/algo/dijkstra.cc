#include "algo/dijkstra.h"

#include <algorithm>

namespace airindex::algo {

Path ExtractPath(const SearchWorkspace& ws, NodeId source, NodeId target) {
  Path p;
  const Dist d = ws.DistTo(target);
  if (d == kInfDist) return p;
  p.dist = d;
  NodeId v = target;
  while (v != kInvalidNode) {
    p.nodes.push_back(v);
    if (v == source) break;
    v = ws.ParentOf(v);
  }
  std::reverse(p.nodes.begin(), p.nodes.end());
  if (p.nodes.empty() || p.nodes.front() != source) {
    // Broken parent chain: report unreachable rather than a wrong path.
    return Path{};
  }
  return p;
}

Dist PathLength(const Graph& g, const std::vector<NodeId>& nodes) {
  if (nodes.empty()) return kInfDist;
  Dist total = 0;
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    Dist best = kInfDist;
    for (const auto& arc : g.OutArcs(nodes[i])) {
      if (arc.to == nodes[i + 1]) best = std::min<Dist>(best, arc.weight);
    }
    if (best == kInfDist) return kInfDist;
    total += best;
  }
  return total;
}

}  // namespace airindex::algo
