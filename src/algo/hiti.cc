#include "algo/hiti.h"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "algo/dijkstra.h"
#include "common/thread_pool.h"

namespace airindex::algo {
namespace {

using graph::Dist;
using graph::kInfDist;
using graph::kInvalidNode;
using graph::NodeId;
using graph::RegionId;

/// A small graph over an explicit node subset with local dense ids; used for
/// the per-sub-graph Dijkstras so their cost scales with the sub-graph, not
/// the whole network.
struct LocalGraph {
  std::vector<NodeId> globals;                     // local -> global
  std::unordered_map<NodeId, uint32_t> local_of;   // global -> local
  std::vector<std::vector<std::pair<uint32_t, Dist>>> adj;

  uint32_t AddNode(NodeId global) {
    auto [it, inserted] =
        local_of.emplace(global, static_cast<uint32_t>(globals.size()));
    if (inserted) {
      globals.push_back(global);
      adj.emplace_back();
    }
    return it->second;
  }

  void AddArc(uint32_t from, uint32_t to, Dist w) {
    adj[from].emplace_back(to, w);
  }

  struct LocalTree {
    std::vector<Dist> dist;
    std::vector<uint32_t> parent;  // local ids; UINT32_MAX = none
  };

  LocalTree Dijkstra(uint32_t source) const {
    LocalTree tree;
    tree.dist.assign(globals.size(), kInfDist);
    tree.parent.assign(globals.size(), UINT32_MAX);
    using Item = std::pair<Dist, uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    tree.dist[source] = 0;
    heap.emplace(0, source);
    while (!heap.empty()) {
      auto [d, v] = heap.top();
      heap.pop();
      if (d != tree.dist[v]) continue;
      for (auto [to, w] : adj[v]) {
        if (d + w < tree.dist[to]) {
          tree.dist[to] = d + w;
          tree.parent[to] = v;
          heap.emplace(d + w, to);
        }
      }
    }
    return tree;
  }

  /// First node after `source` on the recorded path to `target` (local
  /// ids); UINT32_MAX when unreachable or equal.
  uint32_t FirstHop(const LocalTree& tree, uint32_t source,
                    uint32_t target) const {
    if (target == source || tree.dist[target] == kInfDist) {
      return UINT32_MAX;
    }
    uint32_t hop = target;
    while (tree.parent[hop] != source) {
      hop = tree.parent[hop];
      if (hop == UINT32_MAX) return UINT32_MAX;
    }
    return hop;
  }
};

}  // namespace

Result<HiTiIndex> HiTiIndex::Build(const graph::Graph& g,
                                   const partition::KdTreePartitioner& kd,
                                   unsigned num_threads) {
  HiTiIndex idx;
  idx.num_regions_ = kd.num_regions();
  idx.part_ = kd.Partition(g);
  const uint32_t R = idx.num_regions_;
  idx.subs_.resize(2 * R);

  const auto& node_region = idx.part_.node_region;

  // Border nodes of every heap sub-graph: endpoints of arcs crossing the
  // sub-graph boundary (both directions). One pass over arcs per level.
  for (uint32_t h = 1; h < 2 * R; ++h) {
    std::vector<uint8_t> is_border(g.num_nodes(), 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const bool v_in = RegionUnder(node_region[v], h, R);
      for (const auto& arc : g.OutArcs(v)) {
        const bool u_in = RegionUnder(node_region[arc.to], h, R);
        if (v_in != u_in) {
          if (v_in) is_border[v] = 1;
          if (u_in) is_border[arc.to] = 1;
        }
      }
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (is_border[v]) idx.subs_[h].border.push_back(v);
    }
  }

  // Bottom-up super-edge computation. Leaves: Dijkstra restricted to the
  // region's nodes. Internal nodes: Dijkstra over the overlay of the two
  // children's super-edges plus the original arcs crossing between them.
  for (uint32_t h = 2 * R - 1; h >= 1; --h) {
    auto& sub = idx.subs_[h];
    const size_t nb = sub.border.size();
    sub.dmat.assign(nb * nb, kInfDist);
    sub.next_hop.assign(nb * nb, graph::kInvalidNode);
    if (nb == 0) {
      if (h == 1) break;
      continue;
    }

    LocalGraph local;
    if (h >= R) {
      // Leaf: full region detail.
      const RegionId r = h - R;
      for (NodeId v : idx.part_.region_nodes[r]) local.AddNode(v);
      for (NodeId v : idx.part_.region_nodes[r]) {
        const uint32_t lv = local.local_of.at(v);
        for (const auto& arc : g.OutArcs(v)) {
          auto it = local.local_of.find(arc.to);
          if (it != local.local_of.end()) {
            local.AddArc(lv, it->second, arc.weight);
          }
        }
      }
    } else {
      // Internal: children overlays.
      for (uint32_t c : {2 * h, 2 * h + 1}) {
        for (NodeId b : idx.subs_[c].border) local.AddNode(b);
      }
      for (uint32_t c : {2 * h, 2 * h + 1}) {
        const auto& child = idx.subs_[c];
        const size_t cb = child.border.size();
        for (size_t i = 0; i < cb; ++i) {
          const uint32_t li = local.local_of.at(child.border[i]);
          for (size_t j = 0; j < cb; ++j) {
            const Dist d = child.dmat[i * cb + j];
            if (i != j && d != kInfDist) {
              local.AddArc(li, local.local_of.at(child.border[j]), d);
            }
          }
          // Original arcs from this border node into the sibling child.
          for (const auto& arc : g.OutArcs(child.border[i])) {
            const RegionId tr = node_region[arc.to];
            if (RegionUnder(tr, h, R) && !RegionUnder(tr, c, R)) {
              // Head is inside h but in the sibling; it carries a crossing
              // arc so it is a border node of the sibling and thus present.
              auto it = local.local_of.find(arc.to);
              if (it != local.local_of.end()) {
                local.AddArc(li, it->second, arc.weight);
              }
            }
          }
        }
      }
    }

    // One Dijkstra per border node of this sub-graph, parallel.
    ParallelForWorker(
        nb,
        [&](unsigned, size_t i) {
          const uint32_t src = local.local_of.at(sub.border[i]);
          LocalGraph::LocalTree tree = local.Dijkstra(src);
          for (size_t j = 0; j < nb; ++j) {
            const uint32_t dst = local.local_of.at(sub.border[j]);
            sub.dmat[i * nb + j] = tree.dist[dst];
            const uint32_t hop = local.FirstHop(tree, src, dst);
            sub.next_hop[i * nb + j] =
                hop == UINT32_MAX ? graph::kInvalidNode : local.globals[hop];
          }
        },
        num_threads);
    if (h == 1) break;
  }
  return idx;
}

HiTiIndex HiTiIndex::FromTables(uint32_t num_regions,
                                partition::Partitioning part,
                                std::vector<SubgraphInfo> subs) {
  HiTiIndex idx;
  idx.num_regions_ = num_regions;
  idx.part_ = std::move(part);
  idx.subs_ = std::move(subs);
  return idx;
}

size_t HiTiIndex::IndexBytes() const {
  size_t bytes = 0;
  for (uint32_t h = 1; h < subs_.size(); ++h) {
    const auto& sub = subs_[h];
    bytes += 4 + sub.border.size() * 4 + sub.dmat.size() * 4 +
             sub.next_hop.size() * 4;
  }
  return bytes;
}

size_t HiTiIndex::MemoryBytes() const {
  size_t bytes = 0;
  for (uint32_t h = 1; h < subs_.size(); ++h) {
    const auto& sub = subs_[h];
    bytes += sub.border.size() * sizeof(NodeId) +
             sub.dmat.size() * sizeof(Dist) +
             sub.next_hop.size() * sizeof(NodeId);
  }
  return bytes;
}

}  // namespace airindex::algo
