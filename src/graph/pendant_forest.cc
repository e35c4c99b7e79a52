#include "graph/pendant_forest.h"

#include <algorithm>
#include <deque>
#include <numeric>

namespace airindex::graph {
namespace {

/// Lightest arc from -> to, kInfDist when there is none. Spans are sorted
/// by target, so parallel arcs sit next to each other.
Dist LightestArc(const Graph& g, NodeId from, NodeId to) {
  const std::span<const Graph::Arc> arcs = g.OutArcs(from);
  auto it = std::lower_bound(
      arcs.begin(), arcs.end(), to,
      [](const Graph::Arc& a, NodeId v) { return a.to < v; });
  Dist best = kInfDist;
  for (; it != arcs.end() && it->to == to; ++it) {
    best = std::min<Dist>(best, it->weight);
  }
  return best;
}

Dist AddDist(Dist a, Dist b) {
  return a == kInfDist || b == kInfDist ? kInfDist : a + b;
}

}  // namespace

PendantForest DecomposePendantForest(const Graph& g) {
  const size_t n = g.num_nodes();
  const Graph rev = g.Reversed();

  // Calls fn(u) once per distinct neighbour u of v: a merge of the sorted
  // out- and in-spans that skips repeats.
  auto for_each_neighbour = [&](NodeId v, auto&& fn) {
    const std::span<const Graph::Arc> out = g.OutArcs(v);
    const std::span<const Graph::Arc> in = rev.OutArcs(v);
    size_t i = 0;
    size_t j = 0;
    NodeId last = kInvalidNode;
    while (i < out.size() || j < in.size()) {
      NodeId u;
      if (j == in.size() || (i < out.size() && out[i].to <= in[j].to)) {
        u = out[i++].to;
      } else {
        u = in[j++].to;
      }
      if (u == last) continue;
      last = u;
      fn(u);
    }
  };

  PendantForest f;
  f.parent.assign(n, kInvalidNode);
  std::vector<uint32_t> degree(n, 0);
  std::deque<NodeId> queue;
  for (NodeId v = 0; v < n; ++v) {
    for_each_neighbour(v, [&](NodeId) { ++degree[v]; });
    if (degree[v] == 1) queue.push_back(v);
  }
  // A queued node whose last neighbour was removed first has degree 0 by
  // the time it is popped: it is the last node of a tree component and
  // stays as that tree's root.
  std::vector<uint8_t> removed(n, 0);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    if (degree[v] != 1) continue;
    removed[v] = 1;
    f.peel_order.push_back(v);
    for_each_neighbour(v, [&](NodeId u) {
      if (removed[u]) return;
      f.parent[v] = u;
      if (--degree[u] == 1) queue.push_back(u);
    });
  }

  f.core_id.assign(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (removed[v]) continue;
    f.core_id[v] = static_cast<NodeId>(f.core_nodes.size());
    f.core_nodes.push_back(v);
  }

  // Roots first: a node's parent is removed after it (or is core), so the
  // reverse removal order reaches every parent before its children.
  f.root.resize(n);
  std::iota(f.root.begin(), f.root.end(), NodeId{0});
  f.down_step.assign(n, 0);
  f.up_step.assign(n, 0);
  f.down.assign(n, 0);
  f.up.assign(n, 0);
  for (auto it = f.peel_order.rbegin(); it != f.peel_order.rend(); ++it) {
    const NodeId v = *it;
    const NodeId p = f.parent[v];
    f.root[v] = f.root[p];
    f.down_step[v] = LightestArc(g, p, v);
    f.up_step[v] = LightestArc(g, v, p);
    f.down[v] = AddDist(f.down[p], f.down_step[v]);
    f.up[v] = AddDist(f.up_step[v], f.up[p]);
  }

  f.child_offsets_.assign(n + 1, 0);
  for (NodeId v : f.peel_order) ++f.child_offsets_[f.parent[v] + 1];
  std::partial_sum(f.child_offsets_.begin(), f.child_offsets_.end(),
                   f.child_offsets_.begin());
  f.children_.resize(f.peel_order.size());
  std::vector<NodeId> cursor(f.child_offsets_.begin(),
                             f.child_offsets_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (removed[v]) f.children_[cursor[f.parent[v]]++] = v;
  }

  std::vector<Point> core_coords;
  core_coords.reserve(f.core_nodes.size());
  std::vector<EdgeTriplet> core_edges;
  for (NodeId v : f.core_nodes) {
    core_coords.push_back(g.Coord(v));
    for (const Graph::Arc& arc : g.OutArcs(v)) {
      if (removed[arc.to]) continue;
      core_edges.push_back({f.core_id[v], f.core_id[arc.to], arc.weight});
    }
  }
  // The arcs of a valid graph between a subset of its nodes form a valid
  // graph.
  f.core = Graph::Build(std::move(core_coords), core_edges).value();
  return f;
}

}  // namespace airindex::graph
