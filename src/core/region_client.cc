#include "core/region_client.h"

#include <vector>

#include "algo/dijkstra.h"
#include "core/partial_graph.h"
#include "core/region_data.h"
#include "core/repair.h"

namespace airindex::core {

using broadcast::ReceivedSegment;

RegionClient::RegionClient(ClientRun& run, const AirQuery& query,
                           const ClientOptions& options, CacheOrder order)
    : run_(run),
      s_(run.scratch()),
      query_(query),
      options_(options),
      order_(order),
      cache_on_(s_.session.Ready(run.session.channel())),
      super_(query.source, query.target) {}

bool RegionClient::Fetch(uint32_t start, ReceivedSegment* out) {
  if (cache_on_ && s_.session.Load(start, out)) {
    s_.session.CountHit();
    return true;
  }
  broadcast::ReceiveSegmentAt(run_.session, start, out);
  // Store() keeps only complete segments.
  if (cache_on_ && order_ == CacheOrder::kOnReceive) {
    s_.session.Store(start, *out);
  }
  return false;
}

void RegionClient::ReceiveRegion(uint32_t cross_start,
                                 std::optional<uint32_t> local_start) {
  ReceivedSegment* cross = s_.segments.Acquire();
  const bool cross_cached = Fetch(cross_start, cross);
  run_.memory.Charge(cross->payload.size());
  ReceivedSegment* local = nullptr;
  bool local_cached = false;
  if (local_start.has_value()) {
    local = s_.segments.Acquire();
    local_cached = Fetch(*local_start, local);
    run_.memory.Charge(local->payload.size());
  }
  if (!cross->complete || (local != nullptr && !local->complete)) {
    s_.stash.regions.push_back(
        {cross, local, cross_start, local_start.value_or(0)});
    return;
  }
  if (cache_on_ && order_ == CacheOrder::kWholeRegion) {
    if (!cross_cached) s_.session.Store(cross_start, *cross);
    if (local != nullptr && !local_cached) {
      s_.session.Store(*local_start, *local);
    }
  }
  Ingest(*cross, local);
  s_.segments.Recycle(cross);
  if (local != nullptr) s_.segments.Recycle(local);
}

void RegionClient::Ingest(ReceivedSegment& cross, ReceivedSegment* local) {
  device::Stopwatch sw;
  device::MemoryTracker& memory = run_.memory;
  const broadcast::CycleEncoding encoding = run_.session.cycle().encoding();
  // Streams a segment that passed the gate, record by record.
  auto for_each_record = [&](const ReceivedSegment& seg, auto&& add) {
    auto cursor = RegionDataView(seg.payload, encoding).records();
    while (cursor.Next(&s_.record)) add(s_.record);
  };
  if (run_.Decodable(cross)) {
    const bool local_ok = local != nullptr && run_.Decodable(*local);
    if (options_.memory_bound) {
      // §6.1: the region is materialized, collapsed into super-edges and
      // dropped; the materialized copy is part of the modeled charge.
      RegionData region;
      const RegionDataView view(cross.payload, encoding);
      for (size_t i = 0; i < view.border_count(); ++i) {
        region.border.push_back(view.BorderAt(i));
      }
      auto keep = [&](const broadcast::NodeRecord& rec) {
        region.records.push_back(rec);
      };
      for_each_record(cross, keep);
      if (local_ok) for_each_record(*local, keep);
      const size_t decoded =
          region.records.size() * PartialGraph::kModeledNodeBytes +
          region.border.size() * 4;
      memory.Charge(decoded);
      super_.AddRegion(region);
      memory.Release(decoded);
      memory.Release(super_bytes_);
      super_bytes_ = super_.MemoryBytes();
      memory.Charge(super_bytes_);
    } else {
      PartialGraph& pg = s_.partial_graph;
      const size_t before = pg.MemoryBytes();
      auto add = [&](const broadcast::NodeRecord& rec) { pg.AddRecord(rec); };
      for_each_record(cross, add);
      if (local_ok) for_each_record(*local, add);
      memory.Charge(pg.MemoryBytes() - before);
    }
    ++regions_;
  }
  memory.Release(cross.payload.size());
  if (local != nullptr) memory.Release(local->payload.size());
  run_.cpu_ms += sw.ElapsedMs();
}

device::QueryMetrics RegionClient::Finish() {
  // §6.2: one sweep re-listens to every packet the regions lost, in
  // broadcast order, instead of one region per cycle.
  std::vector<RegionStash::Region>& stash = s_.stash.regions;
  if (!stash.empty()) {
    std::vector<PendingRepair>& pending = s_.stash.pending;
    for (const RegionStash::Region& r : stash) {
      if (!r.cross->complete) pending.push_back({r.cross_start, r.cross});
      if (r.local != nullptr && !r.local->complete) {
        pending.push_back({r.local_start, r.local});
      }
    }
    RepairAllSegments(run_.session, pending, options_.max_repair_cycles,
                      s_.stash.missing);
    for (const RegionStash::Region& r : stash) {
      if (cache_on_) {
        // Store() keeps only segments the repairs completed.
        s_.session.Store(r.cross_start, *r.cross);
        if (r.local != nullptr) s_.session.Store(r.local_start, *r.local);
      }
      Ingest(*r.cross, r.local);
    }
  }

  device::Stopwatch sw;
  graph::Dist dist = graph::kInfDist;
  if (options_.memory_bound) {
    dist = super_.Solve();
  } else {
    const PartialGraph& pg = s_.partial_graph;
    algo::DijkstraSearch(pg, query_.source, query_.target,
                         KnownEdgeFilter{&pg}, s_.search);
    dist = s_.search.DistTo(query_.target);
  }
  run_.cpu_ms += sw.ElapsedMs();
  return Metrics(dist);
}

device::QueryMetrics RegionClient::Fail() const {
  return Metrics(graph::kInfDist);
}

device::QueryMetrics RegionClient::Metrics(graph::Dist dist) const {
  device::QueryMetrics metrics = run_.Finish(dist, dist != graph::kInfDist);
  metrics.regions_received = regions_;
  return metrics;
}

}  // namespace airindex::core
