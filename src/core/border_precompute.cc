#include "core/border_precompute.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>
#include <utility>

#include "algo/dijkstra.h"
#include "algo/search_workspace.h"
#include "common/thread_pool.h"
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
  // hanging from it. docs/perf.md argues why this reproduces the
  // full-graph search's distances and shortest-path tree exactly.
  const graph::PendantForest forest = graph::DecomposePendantForest(g);
  const size_t core_n = forest.core_nodes.size();
  const ForestTables tables = BuildForestTables(forest, pre);
  const AttachedTargets attached = BuildAttachedTargets(forest, pre, tables);
  std::vector<graph::NodeId> core_targets;
  for (graph::NodeId c = 0; c < core_n; ++c) {
    if (attached.Any(c)) core_targets.push_back(c);
  }

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

  // One search workspace + one set of accumulators per worker thread,
  // reused across every group the worker claims. Groups are claimed as
  // chunks of kGroupChunk from a shared atomic cursor (work stealing):
  // per-group cost is skewed (a core search, plus one tree walk and row
  // merge per source, and some roots carry many sources). Merging is
  // commutative (min/max/or), so results are byte-identical regardless of
  // which worker ran which group — pinned by core.precompute_parallel_test.
  constexpr size_t kGroupChunk = 8;
  struct WorkerState {
    algo::SearchWorkspace ws;
    // Per core node, `words` words: the regions on the core tree path from
    // the group's root. Only settled nodes hold meaningful entries.
    std::vector<uint64_t> core_mask;
    // Per core node: a settled target lies in its core subtree.
    std::vector<uint8_t> core_below;
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
  std::vector<WorkerState> workers(ResolveWorkers(num_groups, num_threads));
  for (WorkerState& state : workers) {
    state.core_mask.resize(core_n * words);
    state.core_below.resize(core_n);
    state.entered.assign(core_n, 0);
    state.walk_from.resize(n);
    state.walk_dist.resize(n);
    state.walk_mask.resize(n * words);
    state.walk_below.resize(n);
    state.cross_border.assign(n, 0);
  }

  // Fills the group's out_* row from one core search from `root` and
  // marks the core paths to the settled targets cross-border. Like the
  // per-source searches it replaces, a forward sweep over the settle
  // order gives each node its path's regions and a reverse sweep marks
  // the nodes with a target below.
  auto search_beyond_root = [&](WorkerState& state, graph::NodeId root) {
    state.out_min.assign(R, graph::kInfDist);
    state.out_max.assign(R, 0);
    state.out_masks.assign(static_cast<size_t>(R) * words, 0);
    const graph::NodeId rc = forest.core_id[root];
    algo::DijkstraToTargets(forest.core, rc, core_targets, state.ws);
    const std::vector<graph::NodeId>& order = state.ws.settle_order();
    for (graph::NodeId c : order) {
      uint64_t* mask = state.core_mask.data() + c * words;
      const graph::NodeId p = state.ws.ParentOf(c);
      if (p == graph::kInvalidNode) {
        std::fill(mask, mask + words, 0);
      } else {
        const uint64_t* parent_mask = state.core_mask.data() + p * words;
        std::copy(parent_mask, parent_mask + words, mask);
      }
      SetBit(mask, region[forest.core_nodes[c]]);
      // The root's own tree is the walk's.
      state.core_below[c] = c != rc && attached.Any(c);
      if (!state.core_below[c]) continue;
      state.entered[c] = 1;
      const graph::Dist d = state.ws.DistTo(c);
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
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (!state.core_below[*it]) continue;
      state.cross_border[forest.core_nodes[*it]] = 1;
      const graph::NodeId p = state.ws.ParentOf(*it);
      if (p != graph::kInvalidNode) state.core_below[p] = 1;
    }
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
  for (const WorkerState& state : workers) {
    for (size_t v = 0; v < n; ++v) {
      pre.cross_border[v] |= state.cross_border[v];
    }
    for (size_t c = 0; c < core_n; ++c) entered[c] |= state.entered[c];
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
