#ifndef AIRINDEX_CORE_REGION_CLIENT_H_
#define AIRINDEX_CORE_REGION_CLIENT_H_

#include <cstddef>
#include <cstdint>
#include <optional>

#include "broadcast/channel.h"
#include "broadcast/serialization.h"
#include "core/air_system.h"
#include "core/client_run.h"
#include "core/super_edge.h"
#include "device/metrics.h"

namespace airindex::core {

/// The client side of the region data EB and NR broadcast alike: each
/// region is a cross-border segment plus a local segment (§4.1), and
/// whatever arrives damaged is repaired in one sweep per cycle (§6.2). The
/// two methods differ only in how their index picks the regions; this
/// class does everything after that pick:
///   * Fetch serves a segment from the session cache or off the air;
///   * ReceiveRegion charges a region's segments to the client memory and
///     ingests it at once when complete, or stashes it for repair;
///   * Finish runs the repair sweep, ingests what it completed, searches
///     the received regions locally and returns the query's metrics.
/// A segment is ingested only through ClientRun::Decodable's gate; one the
/// gate rejects adds nothing, and its payload's memory charge is released
/// like that of an ingested one. Ingest streams records into
/// scratch().partial_graph, or, under ClientOptions::memory_bound, folds
/// the region into super-edges (§6.1).
class RegionClient {
 public:
  /// When a segment received off the air enters the session cache. NR
  /// stores every segment it fetches on receipt, its local indexes
  /// included. EB fetches only region segments (its index copy has a slot
  /// of its own) and stores a region once both of its segments are
  /// complete. For region segments both orders end with the same complete
  /// segments cached; the order decides LRU recency, hence what a small
  /// cache evicts.
  enum class CacheOrder { kOnReceive, kWholeRegion };

  /// Binds the session cache to the channel of `run` (SessionCache::Ready)
  /// for the query `run` serves; construct it before any cache consult.
  RegionClient(ClientRun& run, const AirQuery& query,
               const ClientOptions& options, CacheOrder order);

  /// Whether the session cache is on for this query.
  bool cache_on() const { return cache_on_; }

  /// Fills `*out` with the segment starting at flat-cycle packet `start`:
  /// from the session cache when it holds one (a hit), else off the air.
  /// Returns whether the cache served it.
  bool Fetch(uint32_t start, broadcast::ReceivedSegment* out);

  /// Receives the region whose cross-border segment starts at
  /// `cross_start`, and its local segment when `local_start` is set.
  void ReceiveRegion(uint32_t cross_start,
                     std::optional<uint32_t> local_start);

  /// Repairs every stashed region in one sweep, ingests them, searches
  /// source to target over what was ingested, and returns the query's
  /// metrics.
  device::QueryMetrics Finish();

  /// The metrics of a query given up before its search: no repair sweep,
  /// no answer.
  device::QueryMetrics Fail() const;

 private:
  void Ingest(broadcast::ReceivedSegment& cross,
              broadcast::ReceivedSegment* local);
  device::QueryMetrics Metrics(graph::Dist dist) const;

  ClientRun& run_;
  QueryScratch& s_;
  const AirQuery& query_;
  const ClientOptions& options_;
  const CacheOrder order_;
  const bool cache_on_;
  SuperEdgeProcessor super_;
  /// The overlay's memory charge, replaced as it grows.
  size_t super_bytes_ = 0;
  /// Regions ingested.
  uint32_t regions_ = 0;
};

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_REGION_CLIENT_H_
