#ifndef AIRINDEX_CORE_SESSION_CACHE_H_
#define AIRINDEX_CORE_SESSION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "broadcast/channel.h"

namespace airindex::core {

/// Per-client cache of broadcast content that survives across the queries
/// of one session. A persistent client that already heard the index and a
/// handful of region segments should not doze for them again on its next
/// query — the cache keeps
///   * a bounded LRU of fully received segments, keyed by the segment's
///     flat-cycle start packet. A complete segment is the station's bytes
///     (broadcast::ReceivedSegment), so an entry is a link in the recency
///     order, one per segment of the bound cycle kept across sessions, and
///     a hit hands back a view of the station; and
///   * a dedicated slot for the client's entry index segment (EB/NR), a
///     copy that may be *incomplete* (then owning its bytes) — the mask
///     travels with it, so a later query's repair pass can fill the holes
///     on air instead of re-listening from scratch.
///
/// The cache is disabled by default (budget 0): every RunQuery path checks
/// Ready() and falls through to the historical cold behaviour, so clients
/// without sessions are byte-identical to a cache-less build (pinned by
/// the golden test in tests/sim).
///
/// Invalidation: entries are only valid for one (cycle, cycle_version)
/// pair. Ready() rebinds the cache to the channel it is consulted against
/// and clears all content when either the cycle object or the channel's
/// cycle_version changed — a stale entry is never served, which is the
/// hook the live-graph-update path needs (bump the station's version and
/// every session cache drops its world view on next use).
///
/// Single-threaded by design, like the QueryScratch that owns it.
class SessionCache {
 public:
  /// Arms (budget > 0) or disarms (budget == 0) the cache for a new client
  /// session, dropping any previous session's content.
  void BeginSession(size_t budget_bytes);

  bool enabled() const { return budget_bytes_ > 0; }

  /// Binds the cache to `channel`'s cycle + cycle_version, clearing stale
  /// content on any change. Returns enabled() — callers gate every consult
  /// and store on this one check.
  bool Ready(const broadcast::BroadcastChannel& channel);

  // -- segment LRU -------------------------------------------------------

  /// Whether the segment starting at flat-cycle packet `segment_start` is
  /// cached (no recency bump).
  bool Has(uint32_t segment_start) const {
    const uint32_t si = SegmentOf(segment_start);
    return si != kNone && links_[si].cached;
  }

  /// Fills `*out` (reusing its buffers) with the cached segment, complete
  /// and viewing the station's bytes, and refreshes its LRU recency.
  /// Returns false on miss.
  bool Load(uint32_t segment_start, broadcast::ReceivedSegment* out);

  /// Enters a *complete* segment starting at `segment_start` into the LRU,
  /// evicting least-recently used entries until the payload budget holds
  /// it. Incomplete segments, segments that start elsewhere and segments
  /// larger than the whole budget are ignored.
  void Store(uint32_t segment_start, const broadcast::ReceivedSegment& seg);

  size_t entry_count() const { return entries_; }
  size_t used_bytes() const { return used_bytes_; }

  // -- entry-index slot (EB/NR) -----------------------------------------

  /// Remembers the session's entry index segment (may be incomplete; the
  /// mask is kept so repairs can complete it later). Overwrites.
  void StoreIndex(uint32_t segment_start,
                  const broadcast::ReceivedSegment& seg);

  bool has_index() const { return has_index_; }
  uint32_t index_start() const { return index_start_; }

  /// Copies the remembered index segment into `*out`; false if absent.
  bool LoadIndex(broadcast::ReceivedSegment* out) const;

  /// Re-stores the (possibly repaired) index state after a query.
  void UpdateIndex(const broadcast::ReceivedSegment& seg) {
    if (has_index_) StoreIndex(index_start_, seg);
  }

  // -- per-query stats ---------------------------------------------------

  /// Resets the per-query hit counter (call at RunQuery entry).
  void BeginQueryStats() { query_hits_ = 0; }
  void CountHit(uint64_t n = 1) { query_hits_ += n; }
  /// Segments served from cache during the current query.
  uint64_t query_hits() const { return query_hits_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// Segment `si`'s place in the LRU list.
  struct Link {
    uint32_t prev = kNone;
    uint32_t next = kNone;
    bool cached = false;
  };

  /// The bound cycle's segment that starts at `segment_start`, or kNone.
  uint32_t SegmentOf(uint32_t segment_start) const;
  void ClearContent();
  void Unlink(uint32_t si);
  void PushFront(uint32_t si);
  void EvictToFit(size_t incoming_bytes);

  size_t budget_bytes_ = 0;
  /// The bound cycle; null until Ready() binds one.
  const broadcast::BroadcastCycle* cycle_ = nullptr;
  uint64_t cycle_version_ = 0;

  /// `head_` is the most recently used entry, `tail_` the next evicted.
  std::vector<Link> links_;
  uint32_t head_ = kNone;
  uint32_t tail_ = kNone;
  size_t entries_ = 0;
  size_t used_bytes_ = 0;

  broadcast::ReceivedSegment index_seg_;
  uint32_t index_start_ = 0;
  bool has_index_ = false;

  uint64_t query_hits_ = 0;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_SESSION_CACHE_H_
