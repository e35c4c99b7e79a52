#include "core/border_precompute.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <mutex>

#include "algo/dijkstra.h"
#include "algo/search_workspace.h"
#include "common/thread_pool.h"

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

}  // namespace

std::vector<graph::RegionId> BorderPrecompute::NeededRegions(
    graph::RegionId i, graph::RegionId j) const {
  std::vector<graph::RegionId> out;
  NeededRegionsInto(i, j, &out);
  return out;
}

void BorderPrecompute::NeededRegionsInto(
    graph::RegionId i, graph::RegionId j,
    std::vector<graph::RegionId>* out) const {
  out->clear();
  const size_t words = words_per_pair();
  const uint64_t* mask =
      traversed.data() + (static_cast<size_t>(i) * num_regions + j) * words;
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    // Endpoint regions are always needed, whether or not a recorded path
    // touches them.
    if (i / 64 == w) bits |= uint64_t{1} << (i % 64);
    if (j / 64 == w) bits |= uint64_t{1} << (j % 64);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      out->push_back(static_cast<graph::RegionId>(w * 64 + bit));
      bits &= bits - 1;
    }
  }
}

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

  const std::vector<graph::NodeId>& B = pre.borders.border_nodes;
  const std::vector<graph::RegionId>& region = pre.part.node_region;
  const std::vector<uint8_t>& is_border = pre.borders.is_border;
  std::mutex merge_mu;

  // One search workspace + one set of accumulators per worker thread,
  // reused across every source the worker claims: the border-pair stage
  // runs |B| single-source searches, so the per-search O(n) allocate/
  // zero-fill it used to pay dominated server pre-computation. Sources are
  // claimed as chunks of kSourceChunk from a shared atomic cursor (work
  // stealing) rather than a static per-worker slice: per-source cost is
  // heavily skewed (dense downtown regions cost far more than rural ones),
  // and under a static split the unlucky worker serialized the tail of the
  // build. Merging is commutative (min/max/or), so results are
  // byte-identical regardless of which worker ran which source — pinned by
  // core.precompute_parallel_test.
  constexpr size_t kSourceChunk = 64;
  struct WorkerState {
    algo::SearchWorkspace ws;
    std::vector<graph::Dist> row_min;
    std::vector<graph::Dist> row_max;
    std::vector<uint64_t> row_masks;
    // Per node, `words` words: the regions on the tree path source -> v.
    // Only nodes settled by the current search hold meaningful entries.
    std::vector<uint64_t> path_mask;
    // Per node: a reached border target lies in v's subtree (v included).
    std::vector<uint8_t> below;
    // Nodes this worker found cross-border; OR-merged after the pool joins.
    std::vector<uint8_t> cross_border;
  };
  std::vector<WorkerState> workers(ResolveWorkers(B.size(), num_threads));
  for (WorkerState& state : workers) {
    state.path_mask.resize(n * words);
    state.below.resize(n);
    state.cross_border.assign(n, 0);
  }

  ParallelForChunked(
      B.size(), kSourceChunk,
      [&](unsigned worker, size_t begin, size_t end) {
        WorkerState& state = workers[worker];
        for (size_t bi = begin; bi < end; ++bi) {
          const graph::NodeId b = B[bi];
          const graph::RegionId rb = region[b];
          algo::DijkstraToTargets(g, b, B, state.ws);
          const std::vector<graph::NodeId>& order = state.ws.settle_order();

          // Per-source accumulators for row rb.
          std::vector<graph::Dist>& row_min = state.row_min;
          std::vector<graph::Dist>& row_max = state.row_max;
          std::vector<uint64_t>& row_masks = state.row_masks;
          row_min.assign(R, graph::kInfDist);
          row_max.assign(R, 0);
          row_masks.assign(static_cast<size_t>(R) * words, 0);

          // Every reached border target is settled (the search stops only
          // once all targets are settled or the heap runs dry), and a
          // parent is settled before its child. So one forward sweep over
          // the settle order derives each node's path-region mask from its
          // parent's: O(settled * words) per source, where walking the
          // tree path of every target costs O(|B| * path length).
          for (graph::NodeId v : order) {
            uint64_t* mask = state.path_mask.data() + v * words;
            const graph::NodeId p = state.ws.ParentOf(v);
            if (p == graph::kInvalidNode) {
              std::fill(mask, mask + words, 0);
            } else {
              const uint64_t* parent_mask =
                  state.path_mask.data() + p * words;
              std::copy(parent_mask, parent_mask + words, mask);
            }
            mask[region[v] / 64] |= uint64_t{1} << (region[v] % 64);
            state.below[v] = is_border[v];
            if (!is_border[v]) continue;
            const graph::Dist d = state.ws.DistTo(v);
            const graph::RegionId r2 = region[v];
            row_min[r2] = std::min(row_min[r2], d);
            row_max[r2] = std::max(row_max[r2], d);
            uint64_t* row = row_masks.data() + static_cast<size_t>(r2) * words;
            for (size_t w = 0; w < words; ++w) row[w] |= mask[w];
          }
          // A node lies on a recorded border-pair path (for inter-region
          // pairs per the paper; we include all pairs, a safe superset)
          // iff a reached border target lies below it in the tree. The
          // reverse sweep visits children before parents.
          for (auto it = order.rbegin(); it != order.rend(); ++it) {
            const graph::NodeId v = *it;
            if (!state.below[v]) continue;
            state.cross_border[v] = 1;
            const graph::NodeId p = state.ws.ParentOf(v);
            if (p != graph::kInvalidNode) state.below[p] = 1;
          }

          std::lock_guard<std::mutex> lock(merge_mu);
          for (graph::RegionId r2 = 0; r2 < R; ++r2) {
            const size_t cell = static_cast<size_t>(rb) * R + r2;
            pre.min_rr[cell] = std::min(pre.min_rr[cell], row_min[r2]);
            pre.max_rr[cell] = std::max(pre.max_rr[cell], row_max[r2]);
            const size_t base = cell * words;
            for (size_t w = 0; w < words; ++w) {
              pre.traversed[base + w] |=
                  row_masks[static_cast<size_t>(r2) * words + w];
            }
          }
        }
      },
      num_threads);

  for (const WorkerState& state : workers) {
    for (size_t v = 0; v < n; ++v) {
      pre.cross_border[v] |= state.cross_border[v];
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
