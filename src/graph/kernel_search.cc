#include "graph/kernel_search.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace airindex::graph {

KernelSearch::KernelSearch(const ChainKernel& kernel)
    : kernel_(&kernel),
      via_(kernel.num_nodes()),
      popped_(kernel.num_nodes()) {}

void KernelSearch::Run(NodeId source, std::span<const NodeId> targets) {
  pending_.assign(kernel_->num_nodes(), 0);
  for (NodeId k : targets) pending_[k] = 1;
  Search(source, targets.size());
}

void KernelSearch::RunAll(NodeId source) {
  pending_.assign(kernel_->num_nodes(), 0);
  Search(source, std::numeric_limits<size_t>::max());
}

KernelSearch::PopKey KernelSearch::LinkKey(const Via& via) const {
  if (via.chain == ChainKernel::kNoChain) {
    return via.from == kInvalidNode ? PopKey{0, source_, 0}
                                    : popped_[via.from];
  }
  if (via.from == kInvalidNode) {
    return WalkKey(via.side == 0 ? 1
                                 : kernel_->chains[source_chain_].interior);
  }
  const ChainKernel::Chain& chain = kernel_->chains[via.chain];
  const uint32_t last = chain.begin + (via.side == 0 ? chain.interior : 1);
  return PopKey{dist_[via.from] + kernel_->from_end[via.side][last],
                kernel_->path[last], 0};
}

KernelSearch::PopKey KernelSearch::WalkKey(uint32_t p) const {
  return PopKey{walk_dist_[p],
                kernel_->path[kernel_->chains[source_chain_].begin + p], 0};
}

KernelSearch::PopKey KernelSearch::ChainKey(uint32_t c, int side, uint32_t p,
                                            Dist end_dist) const {
  const ChainKernel::Chain& chain = kernel_->chains[c];
  if (p == (side == 0 ? 0 : chain.interior + 1)) {
    return popped_[kernel_->End(c, side)];
  }
  const uint32_t slot = chain.begin + p;
  return PopKey{end_dist + kernel_->from_end[side][slot], kernel_->path[slot],
                0};
}

// A strict improvement wins, as in Dijkstra; an equal distance wins when
// the node its link leaves from pops earlier in the plain search. Every
// such node pops before k does, so k's link is final once k pops.
void KernelSearch::Relax(NodeId k, Dist d, const Via& via) {
  Dist& dist = dist_[k];
  if (d < dist) {
    dist = d;
    via_[k] = via;
    heap_.push({d, k});
  } else if (d == dist && LinkKey(via) < LinkKey(via_[k])) {
    via_[k] = via;
  }
}

void KernelSearch::Search(NodeId source, size_t remaining) {
  const ChainKernel& kernel = *kernel_;
  heap_.clear();
  settled_.clear();
  dist_.assign(kernel.num_nodes(), kInfDist);
  source_ = source;
  source_chain_ = kernel.chain_of[source];
  source_position_ = kernel.position[source];

  // A source inside a chain: walk the chain from it to both ends, which
  // seed the search.
  if (source_chain_ == ChainKernel::kNoChain) {
    Relax(kernel.kernel_id[source], 0, Via{});
  } else {
    const uint32_t b = kernel.chains[source_chain_].begin;
    const uint32_t m = kernel.chains[source_chain_].interior;
    const uint32_t sp = source_position_;
    walk_dist_.resize(m + 2);
    walk_dist_[sp] = 0;
    for (uint32_t p = sp; p-- > 0;) {
      walk_dist_[p] = AddDist(walk_dist_[p + 1], kernel.step[1][b + p]);
    }
    for (uint32_t p = sp + 1; p <= m + 1; ++p) {
      walk_dist_[p] = AddDist(walk_dist_[p - 1], kernel.step[0][b + p - 1]);
    }
    for (uint32_t side = 0; side < 2; ++side) {
      const Dist d = walk_dist_[side == 0 ? 0 : m + 1];
      if (d != kInfDist) {
        Relax(kernel.End(source_chain_, static_cast<int>(side)), d,
              Via{kInvalidNode, source_chain_, side});
      }
    }
  }

  Dist level = kInfDist;
  NodeId level_max = 0;
  uint32_t seq = 0;
  while (!heap_.empty() && remaining > 0) {
    const auto [d, k] = heap_.top();
    heap_.pop();
    if (d != dist_[k]) continue;  // stale entry
    settled_.push_back(k);
    const NodeId v = kernel.kernel_nodes[k];
    level_max = d == level ? std::max(level_max, v) : v;
    level = d;
    popped_[k] = {d, level_max, seq++};
    if (pending_[k]) --remaining;
    for (const ChainKernel::Arc& arc : kernel.OutArcs(k)) {
      Relax(arc.to, d + arc.weight,
            Via{k, arc.chain, arc.side,
                static_cast<uint32_t>(kernel.ArcIndex(arc))});
    }
  }
}

KernelSearch::InteriorReach KernelSearch::FromEnds(uint32_t c, uint32_t p,
                                                   Dist de0,
                                                   Dist de1) const {
  const uint32_t slot = kernel_->chains[c].begin + p;
  const Dist d0 = AddDist(de0, kernel_->from_end[0][slot]);
  const Dist d1 = AddDist(de1, kernel_->from_end[1][slot]);
  if (d0 == kInfDist && d1 == kInfDist) return {};
  // At the meeting point both chain neighbours are parents; the one that
  // pops first wins.
  uint8_t side = d0 < d1 ? 0 : 1;
  if (d0 == d1) {
    side = ChainKey(c, 0, p - 1, de0) < ChainKey(c, 1, p + 1, de1) ? 0 : 1;
  }
  return {side == 0 ? d0 : d1, side, false};
}

KernelSearch::InteriorReach KernelSearch::Interior(uint32_t c,
                                                   uint32_t p) const {
  const ChainKernel& kernel = *kernel_;
  const uint32_t b = kernel.chains[c].begin;
  const Dist de[2] = {dist_[kernel.End(c, 0)], dist_[kernel.End(c, 1)]};
  if (c != source_chain_) return FromEnds(c, p, de[0], de[1]);
  if (p == source_position_) return {0, 0, true};
  // On the source's chain: from the source directly, or around through
  // the end on p's side of it.
  const uint8_t side = p < source_position_ ? 0 : 1;
  const Dist from_source = walk_dist_[p];
  const Dist around = AddDist(de[side], kernel.from_end[side][b + p]);
  if (from_source == kInfDist && around == kInfDist) return {};
  const uint32_t toward_source = side == 0 ? p + 1 : p - 1;
  const uint32_t toward_end = side == 0 ? p - 1 : p + 1;
  if (from_source < around ||
      (from_source == around &&
       WalkKey(toward_source) < ChainKey(c, side, toward_end, de[side]))) {
    return {from_source, static_cast<uint8_t>(1 - side), true};
  }
  return {around, side, false};
}

std::array<uint32_t, 2> KernelSearch::Runs(uint32_t c) const {
  const ChainKernel& kernel = *kernel_;
  const uint32_t m = kernel.chains[c].interior;
  const Dist de0 = dist_[kernel.End(c, 0)];
  const Dist de1 = dist_[kernel.End(c, 1)];
  // Interior p reached from end `side`'s side.
  auto reached_from = [&](uint32_t p, uint8_t side) {
    const InteriorReach r = FromEnds(c, p, de0, de1);
    return r.dist != kInfDist && r.side == side;
  };
  // Most chains lie whole on one side's run.
  if (reached_from(m, 0)) return {m, 0};
  if (reached_from(1, 1)) return {0, m};
  // Otherwise neither run is whole: the longest run from each end, the
  // other run excluded.
  std::array<uint32_t, 2> runs = {0, 0};
  for (uint8_t side = 0; side < 2; ++side) {
    uint32_t lo = 0;
    uint32_t hi = m - std::max<uint32_t>(runs[0], 1);
    while (lo < hi) {
      const uint32_t mid = (lo + hi + 1) / 2;
      if (reached_from(side == 0 ? mid : m + 1 - mid, side)) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    runs[side] = lo;
  }
  return runs;
}

DistanceOracle::DistanceOracle(const Graph& g) {
  Graph core;
  {
    // Only the tree links and the core outlive the decomposition.
    PendantForest forest = DecomposePendantForest(g);
    root_core_id_.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      root_core_id_[v] = forest.core_id[forest.root[v]];
    }
    parent_ = std::move(forest.parent);
    up_step_ = std::move(forest.up_step);
    down_step_ = std::move(forest.down_step);
    core = std::move(forest.core);
  }
  kernel_ = ContractChains(core);
}

DistanceOracle::Searcher::Searcher(const DistanceOracle& oracle)
    : oracle_(&oracle),
      search_(oracle.kernel_),
      marked_(oracle.parent_.size(), 0) {}

Dist DistanceOracle::Searcher::Distance(NodeId s, NodeId t) {
  const DistanceOracle& o = *oracle_;
  const NodeId from = o.root_core_id_[s];
  const NodeId to = o.root_core_id_[t];
  if (from == to) return TreeDistance(s, t);
  // s up to its root and t's root down to t.
  Dist up = 0;
  for (NodeId v = s; o.parent_[v] != kInvalidNode; v = o.parent_[v]) {
    up = AddDist(up, o.up_step_[v]);
  }
  Dist down = 0;
  for (NodeId v = t; o.parent_[v] != kInvalidNode; v = o.parent_[v]) {
    down = AddDist(o.down_step_[v], down);
  }
  if (up == kInfDist || down == kInfDist) return kInfDist;
  const ChainKernel& kernel = o.kernel_;
  Dist core = kInfDist;
  if (const NodeId k = kernel.kernel_id[to]; k != kInvalidNode) {
    search_.Run(from, {&k, 1});
    core = search_.dist(k);
  } else {
    // t's root inside a chain: the search settles both of the chain's ends.
    const uint32_t c = kernel.chain_of[to];
    const std::array<NodeId, 2>& ends = kernel.chains[c].ends;
    const size_t distinct = ends[0] == ends[1] ? 1 : 2;
    search_.Run(from, {ends.data(), distinct});
    core = search_.Interior(c, kernel.position[to]).dist;
  }
  return AddDist(AddDist(up, core), down);
}

Dist DistanceOracle::Searcher::TreeDistance(NodeId s, NodeId t) {
  const DistanceOracle& o = *oracle_;
  // The root's parent is kInvalidNode, so each walk ends after the root.
  for (NodeId v = s; v != kInvalidNode; v = o.parent_[v]) marked_[v] = 1;
  NodeId lca = t;
  Dist down = 0;
  for (; !marked_[lca]; lca = o.parent_[lca]) {
    down = AddDist(o.down_step_[lca], down);
  }
  Dist up = 0;
  for (NodeId v = s; v != lca; v = o.parent_[v]) {
    up = AddDist(up, o.up_step_[v]);
  }
  for (NodeId v = s; v != kInvalidNode; v = o.parent_[v]) marked_[v] = 0;
  return AddDist(up, down);
}

}  // namespace airindex::graph
