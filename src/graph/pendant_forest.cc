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

/// Calls fn(u) once per distinct neighbour u of v (`rev` is g reversed): a
/// merge of the sorted out- and in-spans that skips repeats.
template <typename Fn>
void ForEachNeighbour(const Graph& g, const Graph& rev, NodeId v, Fn&& fn) {
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
}

}  // namespace

PendantForest DecomposePendantForest(const Graph& g) {
  const size_t n = g.num_nodes();

  PendantForest f;
  f.parent.assign(n, kInvalidNode);
  std::vector<uint8_t> removed(n, 0);
  {
    // The peeling's scratch is freed before the core is built.
    const Graph rev = g.Reversed();
    std::vector<uint32_t> degree(n, 0);
    std::deque<NodeId> queue;
    for (NodeId v = 0; v < n; ++v) {
      ForEachNeighbour(g, rev, v, [&](NodeId) { ++degree[v]; });
      if (degree[v] == 1) queue.push_back(v);
    }
    // A queued node whose last neighbour was removed first has degree 0 by
    // the time it is popped: it is the last node of a tree component and
    // stays as that tree's root.
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      if (degree[v] != 1) continue;
      removed[v] = 1;
      f.peel_order.push_back(v);
      ForEachNeighbour(g, rev, v, [&](NodeId u) {
        if (removed[u]) return;
        f.parent[v] = u;
        if (--degree[u] == 1) queue.push_back(u);
      });
    }
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
  {
    std::vector<NodeId> cursor(f.child_offsets_.begin(),
                               f.child_offsets_.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      if (removed[v]) f.children_[cursor[f.parent[v]]++] = v;
    }
  }

  std::vector<Point> core_coords;
  core_coords.reserve(f.core_nodes.size());
  // Reserved exactly: the list is as large as the core's arcs.
  size_t core_arcs = 0;
  for (NodeId v : f.core_nodes) {
    for (const Graph::Arc& arc : g.OutArcs(v)) core_arcs += !removed[arc.to];
  }
  std::vector<EdgeTriplet> core_edges;
  core_edges.reserve(core_arcs);
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

ChainKernel ContractChains(const Graph& g) {
  const size_t n = g.num_nodes();
  std::vector<uint8_t> is_kernel(n, 0);
  ChainKernel k;
  {
    // The tracing's scratch is freed before the kernel arcs are built.
    const Graph rev = g.Reversed();

    // Per node: its first two distinct neighbours (all of them for a chain
    // interior).
    std::vector<std::array<NodeId, 2>> neighbours(n);
    for (NodeId v = 0; v < n; ++v) {
      uint32_t degree = 0;
      ForEachNeighbour(g, rev, v, [&](NodeId u) {
        if (degree < 2) neighbours[v][degree] = u;
        ++degree;
      });
      bool zero_arc = false;
      for (const Graph::Arc& a : g.OutArcs(v)) zero_arc |= a.weight == 0;
      for (const Graph::Arc& a : rev.OutArcs(v)) zero_arc |= a.weight == 0;
      is_kernel[v] = degree != 2 || zero_arc;
    }

    k.chain_of.assign(n, ChainKernel::kNoChain);
    k.position.assign(n, 0);
    // Records the chain that leaves kernel node `start` through its
    // interior neighbour `first`, up to the next kernel node.
    auto trace = [&](NodeId start, NodeId first) {
      const auto c = static_cast<uint32_t>(k.chains.size());
      ChainKernel::Chain chain;
      chain.begin = static_cast<uint32_t>(k.path.size());
      k.path.push_back(start);
      NodeId prev = start;
      NodeId cur = first;
      while (!is_kernel[cur]) {
        k.chain_of[cur] = c;
        k.position[cur] = ++chain.interior;
        k.path.push_back(cur);
        const NodeId next = neighbours[cur][0] == prev ? neighbours[cur][1]
                                                       : neighbours[cur][0];
        prev = cur;
        cur = next;
      }
      k.path.push_back(cur);
      k.chains.push_back(chain);
    };
    for (NodeId v = 0; v < n; ++v) {
      if (!is_kernel[v]) continue;
      ForEachNeighbour(g, rev, v, [&](NodeId u) {
        if (!is_kernel[u] && k.chain_of[u] == ChainKernel::kNoChain) {
          trace(v, u);
        }
      });
    }
    // The interiors left over form cycles without a kernel node; each
    // cycle keeps its smallest node as one, and becomes a chain from it to
    // itself.
    for (NodeId v = 0; v < n; ++v) {
      if (is_kernel[v] || k.chain_of[v] != ChainKernel::kNoChain) continue;
      is_kernel[v] = 1;
      trace(v, neighbours[v][0]);
    }
  }

  k.kernel_id.assign(n, kInvalidNode);
  for (NodeId v = 0; v < n; ++v) {
    if (!is_kernel[v]) continue;
    k.kernel_id[v] = static_cast<NodeId>(k.kernel_nodes.size());
    k.kernel_nodes.push_back(v);
  }
  for (ChainKernel::Chain& chain : k.chains) {
    chain.ends = {k.kernel_id[k.path[chain.begin]],
                  k.kernel_id[k.path[chain.begin + chain.interior + 1]]};
  }

  const size_t slots = k.path.size();
  for (int side = 0; side < 2; ++side) {
    k.from_end[side].assign(slots, kInfDist);
    k.step[side].assign(slots, kInfDist);
  }
  for (const ChainKernel::Chain& chain : k.chains) {
    const uint32_t b = chain.begin;
    const uint32_t last = chain.interior + 1;
    for (uint32_t p = 0; p < last; ++p) {
      k.step[0][b + p] = LightestArc(g, k.path[b + p], k.path[b + p + 1]);
      k.step[1][b + p] = LightestArc(g, k.path[b + p + 1], k.path[b + p]);
    }
    k.from_end[0][b] = 0;
    for (uint32_t p = 1; p <= last; ++p) {
      k.from_end[0][b + p] =
          AddDist(k.from_end[0][b + p - 1], k.step[0][b + p - 1]);
    }
    k.from_end[1][b + last] = 0;
    for (uint32_t p = last; p-- > 0;) {
      k.from_end[1][b + p] =
          AddDist(k.from_end[1][b + p + 1], k.step[1][b + p]);
    }
  }

  // Kernel arcs as (from, arc), then a counting sort by `from`.
  std::vector<std::pair<NodeId, ChainKernel::Arc>> arcs;
  for (NodeId v : k.kernel_nodes) {
    const NodeId from = k.kernel_id[v];
    const size_t first = arcs.size();
    // Spans are sorted by target, so parallel arcs are adjacent.
    for (const Graph::Arc& a : g.OutArcs(v)) {
      if (!is_kernel[a.to] || a.to == v) continue;
      const NodeId to = k.kernel_id[a.to];
      if (arcs.size() > first && arcs.back().second.to == to) {
        arcs.back().second.weight =
            std::min<Dist>(arcs.back().second.weight, a.weight);
      } else {
        arcs.push_back({from, {to, ChainKernel::kNoChain, 0, a.weight}});
      }
    }
  }
  for (uint32_t c = 0; c < k.chains.size(); ++c) {
    const ChainKernel::Chain& chain = k.chains[c];
    for (uint8_t side = 0; side < 2; ++side) {
      const NodeId from = k.End(c, side);
      const NodeId to = k.End(c, 1 - side);
      const Dist total =
          k.from_end[side][chain.begin + (side == 0 ? chain.interior + 1 : 0)];
      // A chain from a node back to itself never shortens a way to it.
      if (from == to || total == kInfDist) continue;
      arcs.push_back({from, {to, c, side, total}});
    }
  }
  k.arc_offsets_.assign(k.kernel_nodes.size() + 1, 0);
  for (const auto& [from, arc] : arcs) ++k.arc_offsets_[from + 1];
  std::partial_sum(k.arc_offsets_.begin(), k.arc_offsets_.end(),
                   k.arc_offsets_.begin());
  k.arcs_.resize(arcs.size());
  std::vector<uint32_t> cursor(k.arc_offsets_.begin(),
                               k.arc_offsets_.end() - 1);
  for (const auto& [from, arc] : arcs) k.arcs_[cursor[from]++] = arc;
  return k;
}

}  // namespace airindex::graph
