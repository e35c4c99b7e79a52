#ifndef AIRINDEX_ALGO_SEARCH_WORKSPACE_H_
#define AIRINDEX_ALGO_SEARCH_WORKSPACE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "algo/d_ary_heap.h"
#include "graph/types.h"

namespace airindex::algo {

/// Reusable storage for shortest-path searches (Dijkstra / A*): tentative
/// distances, parent pointers and the frontier heap. A fresh search costs
/// O(n) just to initialize dist/parent; a workspace instead stamps every write
/// with a generation counter and bumps the counter in BeginSearch, so
/// per-search reset is O(1) and a reused workspace allocates nothing in
/// steady state (arrays only grow to the largest graph seen).
///
/// Ownership contract: a workspace is caller-owned scratch, single-threaded
/// by design (one workspace per worker thread), and never an output channel
/// — results read back through DistTo/ParentOf are only valid until the
/// next BeginSearch. The search kernels in dijkstra.h / astar.h run inside
/// a workspace passed by the caller.
///
/// Cache-line aligned: workers keep their workspaces side by side (one per
/// worker in a vector), and the heap ends and counters a search writes on
/// every step must not share a line with another worker's.
class alignas(64) SearchWorkspace {
 public:
  /// Heap entry of the Dijkstra kernels: (tentative distance, node).
  /// Lexicographic pair order is a strict total order over the pushed
  /// entries (a node is only re-pushed on strict improvement), which pins
  /// the pop sequence regardless of heap implementation.
  using HeapItem = std::pair<graph::Dist, graph::NodeId>;

  /// Heap entry of the A* kernel: f = g + lower bound, then g, then the
  /// node id as the final tie-break so the expansion order is a pure
  /// function of the inputs.
  struct AStarItem {
    graph::Dist f = 0;
    graph::Dist g = 0;
    graph::NodeId v = graph::kInvalidNode;
    bool operator<(const AStarItem& o) const {
      if (f != o.f) return f < o.f;
      if (g != o.g) return g < o.g;
      return v < o.v;
    }
  };

  /// Starts a new search over a graph of `n` nodes: bumps the generation
  /// (lazily invalidating every previous dist/parent), clears the heaps,
  /// and grows the arrays if this graph is the largest seen so far.
  void BeginSearch(size_t n) {
    if (n > stamp_.size()) {
      stamp_.resize(n, 0);
      dist_.resize(n);
      parent_.resize(n);
    }
    ++generation_;
    if (generation_ == 0) {  // wrapped: hard-reset the stamps once
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
    settled_ = 0;
    heap_.clear();
    astar_heap_.clear();
  }

  /// Nodes the arrays can address (high-water across searches).
  size_t capacity() const { return stamp_.size(); }

  /// Whether `v` was reached (relaxed) by the current search.
  bool Visited(graph::NodeId v) const {
    return v < stamp_.size() && stamp_[v] == generation_;
  }

  /// Tentative/final distance of the current search (kInfDist when
  /// unreached).
  graph::Dist DistTo(graph::NodeId v) const {
    return Visited(v) ? dist_[v] : graph::kInfDist;
  }

  /// Parent in the shortest-path tree (kInvalidNode when unreached).
  graph::NodeId ParentOf(graph::NodeId v) const {
    return Visited(v) ? parent_[v] : graph::kInvalidNode;
  }

  /// Nodes settled by the current search (the paper's client-CPU proxy).
  size_t settled() const { return settled_; }

  // --- Kernel API (used by the search templates; callers normally only
  // --- read results through the accessors above). `v` must be < the `n`
  // --- of the last BeginSearch.

  /// Records `d` via `parent` if it improves on the current tentative
  /// distance; returns whether it did (i.e. whether to push a heap entry).
  bool TryImprove(graph::NodeId v, graph::Dist d, graph::NodeId parent) {
    if (stamp_[v] == generation_) {
      if (d >= dist_[v]) return false;
    } else {
      stamp_[v] = generation_;
    }
    dist_[v] = d;
    parent_[v] = parent;
    return true;
  }

  /// Current tentative distance without the bounds check of DistTo.
  graph::Dist TentativeDist(graph::NodeId v) const {
    return stamp_[v] == generation_ ? dist_[v] : graph::kInfDist;
  }

  void CountSettled() { ++settled_; }

  DAryHeap<HeapItem>& heap() { return heap_; }
  DAryHeap<AStarItem>& astar_heap() { return astar_heap_; }

 private:
  std::vector<graph::Dist> dist_;
  std::vector<graph::NodeId> parent_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
  size_t settled_ = 0;
  DAryHeap<HeapItem> heap_;
  DAryHeap<AStarItem> astar_heap_;
};

}  // namespace airindex::algo

#endif  // AIRINDEX_ALGO_SEARCH_WORKSPACE_H_
