#ifndef AIRINDEX_CORE_QUERY_SCRATCH_H_
#define AIRINDEX_CORE_QUERY_SCRATCH_H_

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "algo/search_workspace.h"
#include "broadcast/channel.h"
#include "broadcast/serialization.h"
#include "core/decoded_slot_cache.h"
#include "core/eb_index.h"
#include "core/full_cycle.h"
#include "core/nr_index.h"
#include "core/partial_graph.h"
#include "core/repair.h"
#include "core/session_cache.h"
#include "graph/types.h"

namespace airindex::core {

/// Pool of ReceivedSegment buffers for clients that hold several segments
/// at once (EB/NR: the current index copy, per-region cross/local segments,
/// the §6.2 repair stash). Acquire() hands out slots with stable addresses
/// (deque-backed — stash entries keep pointers across later Acquires);
/// Recycle() returns a slot for reuse within the same query, Reset() frees
/// every slot logically while keeping all storage/mask allocations, so a
/// reused arena stops allocating once it has seen the query shape.
class SegmentArena {
 public:
  broadcast::ReceivedSegment* Acquire() {
    if (free_.empty()) {
      slots_.emplace_back();
      return &slots_.back();
    }
    broadcast::ReceivedSegment* seg = free_.back();
    free_.pop_back();
    return seg;
  }

  void Recycle(broadcast::ReceivedSegment* seg) { free_.push_back(seg); }

  const std::deque<broadcast::ReceivedSegment>& slots() const { return slots_; }

  void Reset() {
    free_.clear();
    free_.reserve(slots_.size());
    // Acquire pops from the back, so each query gets the slots in creation
    // order: a query shape seen before lands in the same slots, whose
    // buffers already fit, however much the arena grew since.
    for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
      free_.push_back(&*it);
    }
  }

 private:
  std::deque<broadcast::ReceivedSegment> slots_;
  std::vector<broadcast::ReceivedSegment*> free_;
};

/// The §6.2 loss path of the selective-tuning clients (EB/NR, through
/// core::RegionClient): regions whose segments arrived damaged wait here
/// for one repair sweep after the pass over the cycle, next to that
/// sweep's work lists.
struct RegionStash {
  struct Region {
    broadcast::ReceivedSegment* cross = nullptr;
    /// Null when the region's local segment was not wanted.
    broadcast::ReceivedSegment* local = nullptr;
    uint32_t cross_start = 0;
    uint32_t local_start = 0;
  };
  std::vector<Region> regions;
  std::vector<PendingRepair> pending;
  std::vector<MissingPacket> missing;
};

/// Caller-owned scratch memory for AirSystem::RunQuery: everything a client
/// allocates per query — the search workspace, the partial graph it
/// rebuilds from the air, segment reassembly buffers, decode scratch —
/// lives here so a reused scratch makes the steady-state query path
/// allocation-free. Reported QueryMetrics are byte-identical whether a
/// scratch is fresh or reused (whatever ran in it before): scratch only
/// changes *where* the client's working memory comes from, never what the
/// client computes (the golden test in tests/sim pins this).
///
/// Ownership contract: a QueryScratch is single-threaded — one scratch per
/// worker thread, never shared concurrently (sim::TimedFanOut, both
/// engines' fan-out, keeps one per worker and reuses it across the
/// worker's whole slice). RunQuery resets it on entry, so callers never
/// clean up between queries; contents are meaningless between calls.
struct QueryScratch {
  /// Dijkstra / A* state (dist, parent, frontier heaps).
  algo::SearchWorkspace search;
  /// The client-side network picture (pooled arc storage): the one graph
  /// every client that receives adjacency records decodes into, the
  /// full-cycle clients DJ/LD/AF/SPQ/HiTi included.
  PartialGraph partial_graph;
  /// Segment buffers of the selective-tuning clients (EB/NR).
  SegmentArena segments;
  /// Their damaged regions awaiting repair.
  RegionStash stash;
  /// Reception state of the full-cycle clients (DJ/LD/AF/SPQ/HiTi):
  /// packet masks, no copy of the cycle's bytes.
  FullCycleScratch full_cycle;
  /// Streaming-decode record (arc storage reused across records).
  broadcast::NodeRecord record;
  /// Decoded index scratch of the EB / NR clients.
  EbIndex eb_index;
  NrIndex nr_index;
  /// EB's index byte ranges the query needs intact, and the index packets
  /// covering them that are still missing (§6.2).
  std::vector<std::pair<size_t, size_t>> eb_ranges;
  std::vector<uint32_t> eb_missing;
  /// EB's pruned needed-region list.
  std::vector<graph::RegionId> needed_regions;
  /// NR's received-region flags.
  std::vector<uint8_t> region_flags;
  /// LD's landmark distance vectors: k * n u32 entries each, node-major,
  /// as broadcast (k and n from the header heard).
  std::vector<uint32_t> ld_to;
  std::vector<uint32_t> ld_from;
  /// AF's flag words in the server's CSR arc order (ArcFlagWords per
  /// arc), each received node's first CSR arc index, and the kd splits.
  std::vector<uint64_t> af_flags;
  std::vector<uint32_t> af_arc_base;
  std::vector<double> af_splits;
  /// Cross-query session cache (disabled unless the owner arms it via
  /// BeginSession — the event engine's warm-session path does). NOT reset
  /// by BeginQuery: its whole point is surviving to the next query.
  SessionCache session;
  /// Station-wide decode memoization, set by the event engine when shared
  /// caching is on (null = validate locally, the historical behaviour).
  DecodedSlotCache* decode_cache = nullptr;

  /// Readies the scratch for a fresh query: O(1) generation bumps and
  /// cursor resets; every allocation is kept.
  void BeginQuery() {
    partial_graph.Reset();
    segments.Reset();
    needed_regions.clear();
    stash.regions.clear();
    stash.pending.clear();
    // search workspaces reset per search (BeginSearch); ld_to/ld_from and
    // the af_ vectors are refilled by their clients; full_cycle re-primes
    // per call. The session cache deliberately survives (it is per-session
    // state).
  }
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_QUERY_SCRATCH_H_
