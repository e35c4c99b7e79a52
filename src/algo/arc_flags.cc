#include "algo/arc_flags.h"

#include <algorithm>
#include <array>
#include <span>

#include "algo/dijkstra.h"
#include "common/thread_pool.h"
#include "graph/kernel_search.h"
#include "graph/pendant_forest.h"
#include "partition/partitioning.h"

namespace airindex::algo {

namespace {

/// The CSR index of the arc from -> to that a shortest path takes: the
/// lightest of the parallel arcs between the two (the first in CSR order
/// on a tie), found by binary search in the sorted adjacency span. A
/// heavier parallel arc is never on a shortest path, so flagging it instead
/// would leave a query only the heavier way.
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
  size_t best = lo;
  for (size_t i = lo + 1; i < arcs.size() && arcs[i].to == to; ++i) {
    if (arcs[i].weight < arcs[best].weight) best = i;
  }
  return g.ArcIndex(arcs[best]);
}

void SetBit(uint64_t* mask, graph::RegionId r) {
  mask[r / 64] |= uint64_t{1} << (r % 64);
}

void OrInto(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

}  // namespace

Result<ArcFlagIndex> ArcFlagIndex::Build(
    const graph::Graph& g, const std::vector<graph::RegionId>& node_region,
    uint32_t num_regions, unsigned num_threads) {
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
  idx.words_per_arc_ = ArcFlagWords(num_regions);
  idx.node_region_ = node_region;
  idx.flags_.assign(g.num_arcs() * idx.words_per_arc_, 0);

  // Intra-region flags: an arc whose head lies in R may always be needed to
  // reach R's interior.
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const auto& arc : g.OutArcs(v)) {
      idx.SetArcFlag(g.ArcIndex(arc), node_region[arc.to]);
    }
  }

  // The flag sources: both endpoints of every region-crossing arc. A query
  // enters its target region at the head of such an arc, so every head
  // must be one.
  const partition::BorderInfo borders = partition::ComputeBorders(
      g, partition::MakePartitioning(node_region, num_regions));

  // Every path between a pendant tree and the rest of the network passes
  // the tree's root, so a source's backward search splits into its own
  // branch (the root's child subtree holding it), where paths are tree
  // paths, and the rest, which it reaches through its root: one backward
  // search over the core from each root serves every source hanging from
  // it. docs/perf.md argues why the flags equal the per-source full-graph
  // searches' bit for bit.
  const graph::PendantForest forest = graph::DecomposePendantForest(g);
  const size_t n = g.num_nodes();
  const size_t core_n = forest.core_nodes.size();
  const size_t words = idx.words_per_arc_;
  auto flag_words = [&](graph::NodeId from, graph::NodeId to) {
    return idx.flags_.data() + ArcIndexOf(g, from, to) * words;
  };

  // Per node, `words` words each. At a root: the regions of the sources
  // that reach it backwards (down[b] finite; a core source is its own
  // root). At a branch top: the same for the sources in its branch.
  std::vector<uint64_t> root_mask(n * words, 0);
  std::vector<uint64_t> branch_mask(n * words, 0);
  // Per pendant node: the child of its root it hangs below. Roots first.
  std::vector<graph::NodeId> branch(n, graph::kInvalidNode);
  for (auto it = forest.peel_order.rbegin(); it != forest.peel_order.rend();
       ++it) {
    const graph::NodeId p = forest.parent[*it];
    branch[*it] = forest.IsCore(p) ? *it : branch[p];
  }
  for (graph::NodeId b : borders.border_nodes) {
    if (forest.down[b] == graph::kInfDist) continue;
    SetBit(&root_mask[forest.root[b] * words], node_region[b]);
    if (!forest.IsCore(b)) {
      SetBit(&branch_mask[branch[b] * words], node_region[b]);
    }
  }

  // A pendant node that reaches its root is flagged toward every source
  // at that root outside its own branch. Per branch top, those are the
  // root's regions minus the ones whose every source lies in the branch:
  // the regions of more than one contributor (the root itself, each
  // branch) stay.
  std::vector<uint64_t> outside_branch(n * words, 0);
  std::vector<uint64_t> shared(words);
  std::vector<uint64_t> seen(words);
  for (graph::NodeId r : forest.core_nodes) {
    const std::span<const graph::NodeId> tops = forest.Children(r);
    if (tops.empty()) continue;
    std::fill(shared.begin(), shared.end(), 0);
    std::fill(seen.begin(), seen.end(), 0);
    if (borders.is_border[r]) SetBit(seen.data(), node_region[r]);
    for (graph::NodeId c : tops) {
      for (size_t w = 0; w < words; ++w) {
        shared[w] |= seen[w] & branch_mask[c * words + w];
        seen[w] |= branch_mask[c * words + w];
      }
    }
    for (graph::NodeId c : tops) {
      for (size_t w = 0; w < words; ++w) {
        outside_branch[c * words + w] =
            root_mask[r * words + w] &
            ~(branch_mask[c * words + w] & ~shared[w]);
      }
    }
  }

  // One backward search per root with sources, over the reversed core
  // with its chains contracted (graph::KernelSearch, the border
  // pre-computation's search). Every node it reaches, the root aside,
  // reaches the root's sources through its search parent: flag the arc to
  // it. Per root, a kernel node's parent link is one kernel arc, and a
  // chain's interiors reached from each end form a run from that end, so
  // the workers only OR masks per kernel arc and per run end; the arcs
  // are flagged once, after the pool joins. docs/perf.md argues why the
  // flags equal the per-source searches'.
  std::vector<graph::NodeId> roots;
  for (graph::NodeId c = 0; c < core_n; ++c) {
    const uint64_t* mask = &root_mask[forest.core_nodes[c] * words];
    if (std::any_of(mask, mask + words, [](uint64_t w) { return w != 0; })) {
      roots.push_back(c);
    }
  }
  const graph::ChainKernel kernel =
      graph::ContractChains(forest.core.Reversed());
  constexpr uint32_t kNoChain = graph::ChainKernel::kNoChain;
  const size_t slots = kernel.path.size();

  // Work stealing over the roots, chunks of kRootChunk. Each worker ORs
  // into its own masks, merged after the pool joins, so the result is the
  // same at any thread count.
  constexpr size_t kRootChunk = 4;
  struct WorkerState {
    explicit WorkerState(const graph::ChainKernel& kernel) : search(kernel) {}
    graph::KernelSearch search;
    // Per kernel arc (`words` words): the regions of the roots whose
    // search reached the arc's head over it.
    std::vector<uint64_t> links;
    // Per side and chain slot begin + p (`words` words): the regions of
    // the roots whose search reached position p from p - 1 (side 0) or
    // p + 1 (side 1), walking the root's own chain...
    std::array<std::vector<uint64_t>, 2> walks;
    // ...and of the roots whose run from that side ends at position p.
    std::array<std::vector<uint64_t>, 2> runs;
  };
  std::vector<WorkerState> workers;
  for (unsigned w = ResolveWorkers(roots.size(), num_threads); w > 0; --w) {
    WorkerState& state = workers.emplace_back(kernel);
    state.links.assign(kernel.num_arcs() * words, 0);
    for (int side = 0; side < 2; ++side) {
      state.walks[side].assign(slots * words, 0);
      state.runs[side].assign(slots * words, 0);
    }
  }
  ParallelForChunked(
      roots.size(), kRootChunk,
      [&](unsigned worker, size_t begin, size_t end) {
        WorkerState& state = workers[worker];
        graph::KernelSearch& search = state.search;
        for (size_t i = begin; i < end; ++i) {
          const graph::NodeId rc = roots[i];
          const uint64_t* mask = &root_mask[forest.core_nodes[rc] * words];
          search.RunAll(rc);
          for (graph::NodeId k : search.settled()) {
            const graph::KernelSearch::Via& via = search.via(k);
            if (via.from != graph::kInvalidNode) {
              OrInto(&state.links[via.arc * words], mask, words);
            } else if (via.chain != kNoChain) {
              // An end of the root's chain, reached from its neighbour.
              const graph::ChainKernel::Chain& chain = kernel.chains[via.chain];
              const uint32_t slot =
                  chain.begin + (via.side == 0 ? 0 : chain.interior + 1);
              OrInto(&state.walks[1 - via.side][slot * words], mask, words);
            }
          }
          const uint32_t sc = search.source_chain();
          for (uint32_t c = 0; c < kernel.chains.size(); ++c) {
            if (c == sc) continue;
            const graph::ChainKernel::Chain& chain = kernel.chains[c];
            // Each run's last position. An empty run lands on the chain's
            // end, which the sweep skips.
            const std::array<uint32_t, 2> runs = search.Runs(c);
            const uint32_t last[2] = {
                chain.begin + runs[0],
                chain.begin + chain.interior + 1 - runs[1]};
            for (int side = 0; side < 2; ++side) {
              OrInto(&state.runs[side][last[side] * words], mask, words);
            }
          }
          // The root's own chain: a walk from the root out to both ends.
          if (sc == kNoChain) continue;
          const graph::ChainKernel::Chain& chain = kernel.chains[sc];
          for (uint32_t p = 1; p <= chain.interior; ++p) {
            if (p == search.source_position()) continue;
            const graph::KernelSearch::InteriorReach r =
                search.Interior(sc, p);
            if (r.dist == graph::kInfDist) continue;
            OrInto(&state.walks[r.side][(chain.begin + p) * words], mask,
                   words);
          }
        }
      },
      num_threads);
  WorkerState& merged = workers.front();
  for (size_t k = 1; k < workers.size(); ++k) {
    OrInto(merged.links.data(), workers[k].links.data(), merged.links.size());
    for (int side = 0; side < 2; ++side) {
      OrInto(merged.walks[side].data(), workers[k].walks[side].data(),
             merged.walks[side].size());
      OrInto(merged.runs[side].data(), workers[k].runs[side].data(),
             merged.runs[side].size());
    }
  }

  // Per core id, `words` words: the regions of the sources at the roots
  // whose search reached it, its own root's aside. Each such search
  // flagged exactly one of its arcs, the one toward its search parent.
  std::vector<uint64_t> reach(core_n * words, 0);
  // The arc of g from core node `from` to core node `to`.
  auto core_arc = [&](graph::NodeId from, graph::NodeId to) {
    return ArcIndexOf(g, forest.core_nodes[from], forest.core_nodes[to]);
  };
  auto flag = [&](size_t arc, graph::NodeId reached, const uint64_t* mask) {
    OrInto(&idx.flags_[arc * words], mask, words);
    OrInto(&reach[reached * words], mask, words);
  };
  for (graph::NodeId k = 0; k < kernel.num_nodes(); ++k) {
    for (const graph::ChainKernel::Arc& arc : kernel.OutArcs(k)) {
      const uint64_t* mask = &merged.links[kernel.ArcIndex(arc) * words];
      if (std::all_of(mask, mask + words, [](uint64_t w) { return w == 0; })) {
        continue;
      }
      const graph::NodeId to = kernel.kernel_nodes[arc.to];
      if (arc.chain == kNoChain) {
        flag(core_arc(to, kernel.kernel_nodes[k]), to, mask);
        continue;
      }
      // Over a chain: the end reached from the chain's last interior, as
      // if walked; the sweep below flags its arc.
      const graph::ChainKernel::Chain& chain = kernel.chains[arc.chain];
      const uint32_t slot =
          arc.side == 0 ? chain.begin + chain.interior + 1 : chain.begin;
      OrInto(&merged.walks[arc.side][slot * words], mask, words);
    }
  }
  // Per chain and side, from the far end inward: an interior lies on
  // every run from its side that reaches at least as far (a suffix OR of
  // the run ends), and a walk or an end's link adds its own position.
  std::vector<uint64_t> acc(words);
  std::vector<uint64_t> bits(words);
  auto sweep = [&](uint32_t slot, int side) {
    OrInto(acc.data(), &merged.runs[side][slot * words], words);
    const uint64_t* walk = &merged.walks[side][slot * words];
    for (size_t w = 0; w < words; ++w) bits[w] = acc[w] | walk[w];
    if (std::all_of(bits.begin(), bits.end(),
                    [](uint64_t w) { return w == 0; })) {
      return;
    }
    const graph::NodeId here = kernel.path[slot];
    flag(side == 0 ? core_arc(here, kernel.path[slot - 1])
                   : core_arc(here, kernel.path[slot + 1]),
         here, bits.data());
  };
  for (const graph::ChainKernel::Chain& chain : kernel.chains) {
    std::fill(acc.begin(), acc.end(), 0);
    for (uint32_t slot = chain.begin + chain.interior + 1; slot > chain.begin;
         --slot) {
      sweep(slot, 0);
    }
    std::fill(acc.begin(), acc.end(), 0);
    for (uint32_t slot = chain.begin; slot <= chain.begin + chain.interior;
         ++slot) {
      sweep(slot, 1);
    }
  }

  // Pendant nodes that reach their root: toward the sources the root's
  // backward searches reached, and toward the root's own sources outside
  // the node's branch, the path leaves through the node's parent.
  for (graph::NodeId u : forest.peel_order) {
    if (forest.up[u] == graph::kInfDist) continue;
    const uint64_t* from_core =
        &reach[forest.core_id[forest.root[u]] * words];
    const uint64_t* from_root = &outside_branch[branch[u] * words];
    uint64_t* arc = flag_words(u, forest.parent[u]);
    for (size_t w = 0; w < words; ++w) arc[w] |= from_core[w] | from_root[w];
  }

  // Pendant sources: a backward walk over the source's own branch along
  // the tree arcs that lead toward it, up to the root.
  std::vector<graph::NodeId> walk;
  std::vector<graph::NodeId> walk_from(n);
  for (graph::NodeId b : borders.border_nodes) {
    if (forest.IsCore(b)) continue;
    const graph::RegionId region = node_region[b];
    walk.assign(1, b);
    walk_from[b] = graph::kInvalidNode;
    for (size_t i = 0; i < walk.size(); ++i) {
      const graph::NodeId x = walk[i];
      const graph::NodeId p = forest.parent[x];
      if (p != walk_from[x] && forest.down_step[x] != graph::kInfDist) {
        SetBit(flag_words(p, x), region);
        if (!forest.IsCore(p)) {
          walk_from[p] = x;
          walk.push_back(p);
        }
      }
      for (graph::NodeId c : forest.Children(x)) {
        if (c == walk_from[x] || forest.up_step[c] == graph::kInfDist) {
          continue;
        }
        SetBit(flag_words(c, x), region);
        walk_from[c] = x;
        walk.push_back(c);
      }
    }
  }
  return idx;
}

ArcFlagIndex ArcFlagIndex::MakeEmpty(size_t num_arcs, uint32_t num_regions,
                                     std::vector<graph::RegionId>
                                         node_region) {
  ArcFlagIndex idx;
  idx.num_regions_ = num_regions;
  idx.words_per_arc_ = ArcFlagWords(num_regions);
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

}  // namespace airindex::algo
