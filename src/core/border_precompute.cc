#include "core/border_precompute.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <mutex>
#include <numeric>
#include <utility>

#include "common/thread_pool.h"
#include "graph/kernel_search.h"
#include "graph/pendant_forest.h"

namespace airindex::core {
namespace {

/// One live (or expired) shared pre-computation, with the identity of the
/// graph it was computed on.
struct MemoEntry {
  uint64_t fingerprint = 0;
  size_t nodes = 0;
  size_t arcs = 0;
  std::weak_ptr<const BorderPrecompute> pre;
};

struct PrecomputeMemo {
  std::mutex mu;
  std::vector<MemoEntry> entries;
};

PrecomputeMemo& Memo() {
  static PrecomputeMemo* memo = new PrecomputeMemo();
  return *memo;
}

void SetBit(uint64_t* mask, graph::RegionId r) {
  mask[r / 64] |= uint64_t{1} << (r % 64);
}

void OrInto(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t w = 0; w < words; ++w) dst[w] |= src[w];
}

/// Per-node tables over the pendant forest, one linear sweep each. A core
/// node keeps its own region and flags.
struct ForestTables {
  /// words_per_pair() words per node: the regions on the tree path
  /// root -> v.
  std::vector<uint64_t> tree_mask;
  /// A border node lies in v's subtree (v included).
  std::vector<uint8_t> border_below;
  /// A border node the root reaches down the tree lies there.
  std::vector<uint8_t> reached_below;
};

ForestTables BuildForestTables(const graph::PendantForest& forest,
                               const BorderPrecompute& pre) {
  const size_t n = forest.root.size();
  const size_t words = pre.words_per_pair();
  ForestTables t;
  t.tree_mask.assign(n * words, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    SetBit(t.tree_mask.data() + v * words, pre.part.node_region[v]);
  }
  // Parents first.
  for (auto it = forest.peel_order.rbegin(); it != forest.peel_order.rend();
       ++it) {
    OrInto(t.tree_mask.data() + *it * words,
           t.tree_mask.data() + forest.parent[*it] * words, words);
  }
  t.border_below = pre.borders.is_border;
  t.reached_below.assign(n, 0);
  for (graph::NodeId b : pre.borders.border_nodes) {
    t.reached_below[b] = forest.down[b] != graph::kInfDist;
  }
  // Children first.
  for (graph::NodeId v : forest.peel_order) {
    t.border_below[forest.parent[v]] |= t.border_below[v];
    t.reached_below[forest.parent[v]] |= t.reached_below[v];
  }
  return t;
}

/// The border nodes each core node reaches down its own tree (itself
/// included), folded per region: a search that settles the core node at
/// distance D reaches them at D plus these tree distances.
struct AttachedTargets {
  struct Entry {
    graph::RegionId region;
    graph::Dist min_down;
    graph::Dist max_down;
  };
  /// Per core id c, the entries [offsets[c], offsets[c + 1]).
  std::vector<uint32_t> offsets;
  std::vector<Entry> entries;
  /// words_per_pair() words per entry: the regions on the tree paths to
  /// the entry's border nodes.
  std::vector<uint64_t> masks;

  bool Any(graph::NodeId c) const { return offsets[c] != offsets[c + 1]; }
};

AttachedTargets BuildAttachedTargets(const graph::PendantForest& forest,
                                     const BorderPrecompute& pre,
                                     const ForestTables& tables) {
  const size_t words = pre.words_per_pair();
  const std::vector<graph::RegionId>& region = pre.part.node_region;
  auto key = [&](graph::NodeId b) {
    return std::pair(forest.core_id[forest.root[b]], region[b]);
  };
  std::vector<graph::NodeId> reached;
  for (graph::NodeId b : pre.borders.border_nodes) {
    if (forest.down[b] != graph::kInfDist) reached.push_back(b);
  }
  std::stable_sort(
      reached.begin(), reached.end(),
      [&](graph::NodeId a, graph::NodeId b) { return key(a) < key(b); });

  AttachedTargets t;
  t.offsets.assign(forest.core_nodes.size() + 1, 0);
  for (size_t i = 0; i < reached.size(); ++i) {
    const graph::NodeId b = reached[i];
    const graph::Dist down = forest.down[b];
    if (i == 0 || key(reached[i - 1]) != key(b)) {
      t.entries.push_back({region[b], down, down});
      t.masks.resize(t.masks.size() + words, 0);
      ++t.offsets[key(b).first + 1];
    }
    AttachedTargets::Entry& e = t.entries.back();
    e.min_down = std::min(e.min_down, down);
    e.max_down = std::max(e.max_down, down);
    OrInto(t.masks.data() + t.masks.size() - words,
           tables.tree_mask.data() + b * words, words);
  }
  std::partial_sum(t.offsets.begin(), t.offsets.end(), t.offsets.begin());
  return t;
}

/// Per-chain tables over the chain kernel.
struct ChainTables {
  /// words_per_pair() words per slot and side: the regions of the chain
  /// interiors between the side's end and the slot's node, that node
  /// included (side 0: positions 1..p, side 1: p..interior).
  std::array<std::vector<uint64_t>, 2> mask;
  /// The chains with an interior target (a core node with attached
  /// targets), and per chain c its target positions
  /// [target_offsets[c], target_offsets[c + 1]).
  std::vector<uint32_t> target_chains;
  std::vector<uint32_t> target_offsets;
  std::vector<uint32_t> target_positions;
  /// The kernel nodes a search must settle: those with attached targets
  /// and the ends of target_chains.
  std::vector<graph::NodeId> kernel_targets;
};

ChainTables BuildChainTables(const graph::ChainKernel& kernel,
                             const std::vector<graph::RegionId>& core_region,
                             const AttachedTargets& attached, size_t words) {
  ChainTables t;
  for (std::vector<uint64_t>& mask : t.mask) {
    mask.assign(kernel.path.size() * words, 0);
  }
  t.target_offsets.assign(kernel.chains.size() + 1, 0);
  std::vector<uint8_t> needed(kernel.num_nodes(), 0);
  for (uint32_t c = 0; c < kernel.chains.size(); ++c) {
    const uint32_t b = kernel.chains[c].begin;
    const uint32_t m = kernel.chains[c].interior;
    for (uint32_t p = 1; p <= m; ++p) {
      uint64_t* mask = t.mask[0].data() + (b + p) * words;
      std::copy(mask - words, mask, mask);
      SetBit(mask, core_region[kernel.path[b + p]]);
      if (attached.Any(kernel.path[b + p])) t.target_positions.push_back(p);
    }
    for (uint32_t p = m; p >= 1; --p) {
      uint64_t* mask = t.mask[1].data() + (b + p) * words;
      std::copy(mask + words, mask + 2 * words, mask);
      SetBit(mask, core_region[kernel.path[b + p]]);
    }
    t.target_offsets[c + 1] =
        static_cast<uint32_t>(t.target_positions.size());
    if (t.target_offsets[c + 1] != t.target_offsets[c]) {
      t.target_chains.push_back(c);
      needed[kernel.End(c, 0)] = 1;
      needed[kernel.End(c, 1)] = 1;
    }
  }
  for (graph::NodeId k = 0; k < kernel.num_nodes(); ++k) {
    if (needed[k] || attached.Any(kernel.kernel_nodes[k])) {
      t.kernel_targets.push_back(k);
    }
  }
  return t;
}

}  // namespace

void BorderPrecompute::NeededRegionsMask(graph::RegionId i, graph::RegionId j,
                                         uint64_t* words) const {
  const size_t n = words_per_pair();
  const uint64_t* mask =
      traversed.data() + (static_cast<size_t>(i) * num_regions + j) * n;
  std::copy(mask, mask + n, words);
  words[i / 64] |= uint64_t{1} << (i % 64);
  words[j / 64] |= uint64_t{1} << (j % 64);
}

Result<BorderPrecompute> ComputeBorderPrecompute(
    const graph::Graph& g, partition::Partitioning part,
    unsigned num_threads) {
  if (part.node_region.size() != g.num_nodes()) {
    return Status::InvalidArgument("partitioning does not match graph");
  }
  const auto start = std::chrono::steady_clock::now();

  BorderPrecompute pre;
  pre.num_regions = part.num_regions;
  pre.part = std::move(part);
  pre.borders = partition::ComputeBorders(g, pre.part);

  const uint32_t R = pre.num_regions;
  const size_t words = pre.words_per_pair();
  pre.min_rr.assign(static_cast<size_t>(R) * R, graph::kInfDist);
  pre.max_rr.assign(static_cast<size_t>(R) * R, 0);
  pre.traversed.assign(static_cast<size_t>(R) * R * words, 0);
  const size_t n = g.num_nodes();
  pre.cross_border.assign(n, 0);

  const std::vector<graph::RegionId>& region = pre.part.node_region;
  const std::vector<uint8_t>& is_border = pre.borders.is_border;

  // Every path between a pendant tree and the rest of the network passes
  // the tree's root. So a border source's search splits into its own tree,
  // where paths are tree paths, and the rest, which it reaches through its
  // root: one search over the core from that root serves every source
  // hanging from it. That search runs over the core with its chains
  // contracted and finds each chain interior from the chain's two ends.
  // docs/perf.md argues why this reproduces the full-graph search's
  // distances and shortest-path tree exactly.
  const graph::PendantForest forest = graph::DecomposePendantForest(g);
  const size_t core_n = forest.core_nodes.size();
  const graph::ChainKernel kernel = graph::ContractChains(forest.core);
  const size_t kernel_n = kernel.num_nodes();
  std::vector<graph::RegionId> core_region(core_n);
  for (graph::NodeId c = 0; c < core_n; ++c) {
    core_region[c] = region[forest.core_nodes[c]];
  }
  const ForestTables tables = BuildForestTables(forest, pre);
  const AttachedTargets attached = BuildAttachedTargets(forest, pre, tables);
  const ChainTables chain_tables =
      BuildChainTables(kernel, core_region, attached, words);
  constexpr uint32_t kNoChain = graph::ChainKernel::kNoChain;

  // Border nodes grouped by root; a group's sources are consecutive.
  std::vector<graph::NodeId> sources = pre.borders.border_nodes;
  auto root_of = [&](graph::NodeId b) { return forest.root[b]; };
  std::stable_sort(sources.begin(), sources.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     return root_of(a) < root_of(b);
                   });
  std::vector<size_t> group_begin;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (i == 0 || root_of(sources[i]) != root_of(sources[i - 1])) {
      group_begin.push_back(i);
    }
  }
  const size_t num_groups = group_begin.size();
  group_begin.push_back(sources.size());

  // One search state + one set of accumulators per worker thread, reused
  // across every group the worker claims. Groups are claimed as chunks of
  // kGroupChunk from a shared atomic cursor (work stealing): per-group
  // cost is skewed (a kernel search, plus one tree walk and row merge per
  // source, and some roots carry many sources). Merging is commutative
  // (min/max/or), so results are byte-identical regardless of which
  // worker ran which group — pinned by core.precompute_parallel_test.
  constexpr size_t kGroupChunk = 8;
  struct WorkerState {
    explicit WorkerState(const graph::ChainKernel& kernel) : search(kernel) {}
    // The kernel search, and per kernel node whether a reached target lies
    // above it and (`words` words) the regions on its path from the root.
    graph::KernelSearch search;
    std::vector<uint8_t> below;
    std::vector<uint64_t> kernel_mask;
    // A root inside a chain: per position of its chain, the path regions
    // from the root along the chain (`words` words).
    std::vector<uint64_t> chain_mask;
    // One target's path regions.
    std::vector<uint64_t> target_mask;
    // Per side and chain: the most interiors, counted from that end, that
    // lie on a path to a reached target. Max-merged after the pool joins.
    std::array<std::vector<uint32_t>, 2> reach;
    // Per core node: a search from outside its tree settled it, so the
    // tree paths down to the border nodes it reaches are recorded.
    std::vector<uint8_t> entered;
    // The group's row over the targets beyond its root, as distances from
    // the root.
    std::vector<graph::Dist> out_min;
    std::vector<graph::Dist> out_max;
    std::vector<uint64_t> out_masks;
    // Per-source row.
    std::vector<graph::Dist> row_min;
    std::vector<graph::Dist> row_max;
    std::vector<uint64_t> row_masks;
    // The walk over the source's own tree: visit order (each node after
    // its predecessor), and per visited node its predecessor, distance,
    // path regions (`words` words) and whether a target lies beyond it.
    std::vector<graph::NodeId> walk_order;
    std::vector<graph::NodeId> walk_from;
    std::vector<graph::Dist> walk_dist;
    std::vector<uint64_t> walk_mask;
    std::vector<uint8_t> walk_below;
    // Nodes this worker found cross-border; OR-merged after the pool joins.
    std::vector<uint8_t> cross_border;
  };
  std::vector<WorkerState> workers;
  for (unsigned w = ResolveWorkers(num_groups, num_threads); w > 0; --w) {
    WorkerState& state = workers.emplace_back(kernel);
    state.kernel_mask.resize(kernel_n * words);
    state.target_mask.resize(words);
    for (std::vector<uint32_t>& reach : state.reach) {
      reach.assign(kernel.chains.size(), 0);
    }
    state.entered.assign(core_n, 0);
    state.walk_from.resize(n);
    state.walk_dist.resize(n);
    state.walk_mask.resize(n * words);
    state.walk_below.resize(n);
    state.cross_border.assign(n, 0);
  }

  // Fills the group's out_* row from one kernel search from `root` and
  // marks the paths to the reached targets cross-border. Like the
  // per-source searches it replaces, a forward sweep over the settle
  // order gives each kernel node its path's regions and a reverse sweep
  // marks the nodes with a target below; a chain interior takes both from
  // the end it is reached from.
  auto search_beyond_root = [&](WorkerState& state, graph::NodeId root) {
    state.out_min.assign(R, graph::kInfDist);
    state.out_max.assign(R, 0);
    state.out_masks.assign(static_cast<size_t>(R) * words, 0);
    const graph::NodeId rc = forest.core_id[root];
    bool found = false;
    // Adds the targets hanging from core node c, reached at distance d
    // along a path through the regions `mask`.
    auto reach_target = [&](graph::NodeId c, graph::Dist d,
                            const uint64_t* mask) {
      found = true;
      state.entered[c] = 1;
      for (uint32_t e = attached.offsets[c]; e < attached.offsets[c + 1];
           ++e) {
        const AttachedTargets::Entry& entry = attached.entries[e];
        const graph::RegionId r2 = entry.region;
        state.out_min[r2] = std::min(state.out_min[r2], d + entry.min_down);
        state.out_max[r2] = std::max(state.out_max[r2], d + entry.max_down);
        uint64_t* row =
            state.out_masks.data() + static_cast<size_t>(r2) * words;
        OrInto(row, mask, words);
        OrInto(row, attached.masks.data() + e * words, words);
      }
    };
    auto mark = [&](graph::NodeId c) {
      state.cross_border[forest.core_nodes[c]] = 1;
    };

    graph::KernelSearch& search = state.search;
    search.Run(rc, chain_tables.kernel_targets);
    state.below.assign(kernel_n, 0);
    // For a root inside a chain: that chain, its first slot and interior
    // count, and the root's position there.
    const uint32_t root_chain = search.source_chain();
    uint32_t rb = 0;
    uint32_t rm = 0;
    uint32_t rp = 0;
    if (root_chain != kNoChain) {
      rb = kernel.chains[root_chain].begin;
      rm = kernel.chains[root_chain].interior;
      rp = search.source_position();
      state.chain_mask.assign((rm + 2) * words, 0);
      SetBit(state.chain_mask.data() + rp * words, core_region[rc]);
      auto extend = [&](uint32_t p, uint32_t from) {
        uint64_t* mask = state.chain_mask.data() + p * words;
        OrInto(mask, state.chain_mask.data() + from * words, words);
        SetBit(mask, core_region[kernel.path[rb + p]]);
      };
      for (uint32_t p = rp; p-- > 0;) extend(p, p + 1);
      for (uint32_t p = rp + 1; p <= rm + 1; ++p) extend(p, p - 1);
    }

    for (graph::NodeId k : search.settled()) {
      uint64_t* mask = state.kernel_mask.data() + k * words;
      const graph::KernelSearch::Via& via = search.via(k);
      if (via.from != graph::kInvalidNode) {
        const uint64_t* from_mask =
            state.kernel_mask.data() + via.from * words;
        std::copy(from_mask, from_mask + words, mask);
        if (via.chain != kNoChain) {
          const graph::ChainKernel::Chain& chain = kernel.chains[via.chain];
          OrInto(mask,
                 chain_tables.mask[0].data() +
                     (chain.begin + chain.interior) * words,
                 words);
        }
      } else if (via.chain != kNoChain) {
        const uint64_t* walk =
            state.chain_mask.data() + (via.side == 0 ? 0 : rm + 1) * words;
        std::copy(walk, walk + words, mask);
      } else {
        std::fill(mask, mask + words, 0);
      }
      const graph::NodeId c = kernel.kernel_nodes[k];
      SetBit(mask, core_region[c]);
      // The root's own tree is the walk's.
      if (c != rc && attached.Any(c)) {
        state.below[k] = 1;
        reach_target(c, search.dist(k), mask);
      }
    }

    // Chain interior targets: the target at position p of chain c reached
    // from its end `side` at distance d.
    auto reach_from_end = [&](uint32_t c, int side, uint32_t p,
                              graph::Dist d) {
      const graph::ChainKernel::Chain& chain = kernel.chains[c];
      const graph::NodeId end = kernel.End(c, side);
      const uint32_t slot = chain.begin + p;
      uint64_t* mask = state.target_mask.data();
      const uint64_t* end_mask = state.kernel_mask.data() + end * words;
      std::copy(end_mask, end_mask + words, mask);
      OrInto(mask, chain_tables.mask[side].data() + slot * words, words);
      reach_target(kernel.path[slot], d, mask);
      state.below[end] = 1;
      uint32_t& reach = state.reach[side][c];
      reach = std::max(reach, side == 0 ? p : chain.interior + 1 - p);
    };
    // The ends of every target chain are kernel targets, so the search
    // settled them if it reached them.
    for (uint32_t c : chain_tables.target_chains) {
      const uint32_t b = kernel.chains[c].begin;
      for (uint32_t i = chain_tables.target_offsets[c];
           i < chain_tables.target_offsets[c + 1]; ++i) {
        const uint32_t p = chain_tables.target_positions[i];
        if (c == root_chain && p == rp) continue;
        const graph::KernelSearch::InteriorReach r = search.Interior(c, p);
        if (r.dist == graph::kInfDist) continue;
        if (!r.from_source) {
          reach_from_end(c, r.side, p, r.dist);
          continue;
        }
        reach_target(kernel.path[b + p], r.dist,
                     state.chain_mask.data() + p * words);
        for (uint32_t q = std::min(p, rp); q <= std::max(p, rp); ++q) {
          if (q != rp) mark(kernel.path[b + q]);
        }
      }
    }

    const std::span<const graph::NodeId> settled = search.settled();
    for (auto it = settled.rbegin(); it != settled.rend(); ++it) {
      const graph::NodeId k = *it;
      if (!state.below[k]) continue;
      mark(kernel.kernel_nodes[k]);
      const graph::KernelSearch::Via& via = search.via(k);
      if (via.from != graph::kInvalidNode) {
        state.below[via.from] = 1;
        if (via.chain != kNoChain) {
          state.reach[via.side][via.chain] =
              kernel.chains[via.chain].interior;
        }
      } else if (via.chain != kNoChain) {
        // An end of the root's chain: the interiors between it and the
        // root.
        const uint32_t lo = via.side == 0 ? 1 : rp + 1;
        const uint32_t hi = via.side == 0 ? rp : rm + 1;
        for (uint32_t q = lo; q < hi; ++q) mark(kernel.path[rb + q]);
      }
    }
    if (found) state.cross_border[root] = 1;
  };

  // Adds the targets in b's own tree, its root included, to the row: a
  // walk outward from b along tree arcs that skips subtrees without border
  // nodes, then a reverse sweep marking the paths to the targets.
  // `beyond_root`: the row also holds targets past the root, so the path
  // b -> root is recorded too.
  auto walk_own_tree = [&](WorkerState& state, graph::NodeId b,
                           bool beyond_root) {
    std::vector<graph::NodeId>& order = state.walk_order;
    order.assign(1, b);
    state.walk_from[b] = graph::kInvalidNode;
    state.walk_dist[b] = 0;
    auto step = [&](graph::NodeId from, graph::NodeId v, graph::Dist w) {
      if (w == graph::kInfDist) return;  // no arc that way
      state.walk_from[v] = from;
      state.walk_dist[v] = state.walk_dist[from] + w;
      order.push_back(v);
    };
    for (size_t i = 0; i < order.size(); ++i) {
      const graph::NodeId v = order[i];
      const graph::NodeId from = state.walk_from[v];
      uint64_t* mask = state.walk_mask.data() + v * words;
      if (from == graph::kInvalidNode) {
        std::fill(mask, mask + words, 0);
      } else {
        const uint64_t* from_mask = state.walk_mask.data() + from * words;
        std::copy(from_mask, from_mask + words, mask);
      }
      SetBit(mask, region[v]);
      state.walk_below[v] = is_border[v];
      if (is_border[v]) {
        const graph::Dist d = state.walk_dist[v];
        const graph::RegionId r2 = region[v];
        state.row_min[r2] = std::min(state.row_min[r2], d);
        state.row_max[r2] = std::max(state.row_max[r2], d);
        OrInto(state.row_masks.data() + static_cast<size_t>(r2) * words,
               mask, words);
      }
      if (!forest.IsCore(v) && forest.parent[v] != from) {
        step(v, forest.parent[v], forest.up_step[v]);
      }
      for (graph::NodeId c : forest.Children(v)) {
        if (c != from && tables.border_below[c]) {
          step(v, c, forest.down_step[c]);
        }
      }
    }
    if (beyond_root) state.walk_below[forest.root[b]] = 1;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (!state.walk_below[*it]) continue;
      state.cross_border[*it] = 1;
      const graph::NodeId from = state.walk_from[*it];
      if (from != graph::kInvalidNode) state.walk_below[from] = 1;
    }
  };

  std::mutex merge_mu;
  ParallelForChunked(
      num_groups, kGroupChunk,
      [&](unsigned worker, size_t begin, size_t end) {
        WorkerState& state = workers[worker];
        for (size_t gi = begin; gi < end; ++gi) {
          const size_t first = group_begin[gi];
          const size_t last = group_begin[gi + 1];
          // Only a source that reaches its root sees past it.
          bool any_up = false;
          for (size_t i = first; i < last; ++i) {
            any_up |= forest.up[sources[i]] != graph::kInfDist;
          }
          bool beyond = false;
          if (any_up) {
            search_beyond_root(state, root_of(sources[first]));
            beyond = std::any_of(
                state.out_min.begin(), state.out_min.end(),
                [](graph::Dist d) { return d != graph::kInfDist; });
          }

          for (size_t i = first; i < last; ++i) {
            const graph::NodeId b = sources[i];
            std::vector<graph::Dist>& row_min = state.row_min;
            std::vector<graph::Dist>& row_max = state.row_max;
            std::vector<uint64_t>& row_masks = state.row_masks;
            row_min.assign(R, graph::kInfDist);
            row_max.assign(R, 0);
            row_masks.assign(static_cast<size_t>(R) * words, 0);

            // Targets beyond the root: the tree path b -> root, then the
            // group's row.
            const graph::Dist up = forest.up[b];
            const bool beyond_root = beyond && up != graph::kInfDist;
            if (beyond_root) {
              const uint64_t* up_mask = tables.tree_mask.data() + b * words;
              for (graph::RegionId r2 = 0; r2 < R; ++r2) {
                if (state.out_min[r2] == graph::kInfDist) continue;
                row_min[r2] = up + state.out_min[r2];
                row_max[r2] = up + state.out_max[r2];
                const size_t base = static_cast<size_t>(r2) * words;
                OrInto(&row_masks[base], up_mask, words);
                OrInto(&row_masks[base], &state.out_masks[base], words);
              }
            }
            walk_own_tree(state, b, beyond_root);

            const graph::RegionId rb = region[b];
            std::lock_guard<std::mutex> lock(merge_mu);
            for (graph::RegionId r2 = 0; r2 < R; ++r2) {
              const size_t cell = static_cast<size_t>(rb) * R + r2;
              pre.min_rr[cell] = std::min(pre.min_rr[cell], row_min[r2]);
              pre.max_rr[cell] = std::max(pre.max_rr[cell], row_max[r2]);
              OrInto(&pre.traversed[cell * words],
                     &row_masks[static_cast<size_t>(r2) * words], words);
            }
          }
        }
      },
      num_threads);

  std::vector<uint8_t> entered(core_n, 0);
  std::array<std::vector<uint32_t>, 2> reach;
  for (std::vector<uint32_t>& r : reach) r.assign(kernel.chains.size(), 0);
  for (const WorkerState& state : workers) {
    for (size_t v = 0; v < n; ++v) {
      pre.cross_border[v] |= state.cross_border[v];
    }
    for (size_t c = 0; c < core_n; ++c) entered[c] |= state.entered[c];
    for (int side = 0; side < 2; ++side) {
      for (size_t c = 0; c < kernel.chains.size(); ++c) {
        reach[side][c] = std::max(reach[side][c], state.reach[side][c]);
      }
    }
  }
  // The chain interiors on paths to reached targets: a run from each end.
  for (uint32_t c = 0; c < kernel.chains.size(); ++c) {
    const uint32_t b = kernel.chains[c].begin;
    const uint32_t m = kernel.chains[c].interior;
    for (uint32_t p = 1; p <= reach[0][c]; ++p) {
      pre.cross_border[forest.core_nodes[kernel.path[b + p]]] = 1;
    }
    for (uint32_t p = m + 1 - reach[1][c]; p <= m; ++p) {
      pre.cross_border[forest.core_nodes[kernel.path[b + p]]] = 1;
    }
  }
  // A search that entered a tree at its root recorded the tree paths down
  // to every border node the root reaches.
  for (graph::NodeId v : forest.peel_order) {
    if (tables.reached_below[v] && entered[forest.core_id[forest.root[v]]]) {
      pre.cross_border[v] = 1;
    }
  }

  pre.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return pre;
}

Result<std::shared_ptr<const BorderPrecompute>> SharedBorderPrecompute(
    const graph::Graph& g, partition::Partitioning part,
    unsigned num_threads) {
  const uint64_t fingerprint = graph::Fingerprint(g);
  PrecomputeMemo& memo = Memo();
  {
    std::lock_guard<std::mutex> lock(memo.mu);
    std::erase_if(memo.entries,
                  [](const MemoEntry& e) { return e.pre.expired(); });
    for (const MemoEntry& e : memo.entries) {
      if (e.fingerprint != fingerprint || e.nodes != g.num_nodes() ||
          e.arcs != g.num_arcs()) {
        continue;
      }
      std::shared_ptr<const BorderPrecompute> pre = e.pre.lock();
      if (pre != nullptr && pre->num_regions == part.num_regions &&
          pre->part.node_region == part.node_region) {
        return pre;
      }
    }
  }
  AIRINDEX_ASSIGN_OR_RETURN(
      BorderPrecompute computed,
      ComputeBorderPrecompute(g, std::move(part), num_threads));
  auto pre = std::make_shared<const BorderPrecompute>(std::move(computed));
  std::lock_guard<std::mutex> lock(memo.mu);
  memo.entries.push_back({fingerprint, g.num_nodes(), g.num_arcs(), pre});
  return pre;
}

}  // namespace airindex::core
