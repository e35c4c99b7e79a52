#include "core/range_on_air.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "algo/dijkstra.h"
#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/partial_graph.h"
#include "core/region_data.h"
#include "core/repair.h"
#include "partition/kd_tree.h"

namespace airindex::core {

RangeResult RunRangeQuery(const EbSystem& system,
                          const broadcast::BroadcastChannel& channel,
                          const RangeQuery& query,
                          const ClientOptions& options) {
  RangeResult result;
  const broadcast::BroadcastCycle& cycle = system.cycle();
  ClientRun run(channel, TuneInPosition(cycle, query.tune_phase), options,
                nullptr);
  broadcast::ClientSession& session = run.session;
  device::MemoryTracker& memory = run.memory;
  const uint32_t total = cycle.total_packets();

  // Receive the next index copy (same protocol as the shortest-path
  // client; simple whole-copy repair is enough here).
  broadcast::ReceivedSegment index_seg;
  const std::optional<uint32_t> index_start =
      run.ReceiveNextIndex(&index_seg, 64);
  if (!index_start.has_value()) return result;
  if (!index_seg.complete &&
      !RepairSegment(session, *index_start, &index_seg,
                     options.max_repair_cycles)) {
    return result;
  }
  memory.Charge(index_seg.payload.size());

  device::Stopwatch sw_prune;
  auto index_or = EbIndex::Decode(index_seg.payload);
  if (!index_or.ok()) return result;
  const EbIndex index = std::move(index_or).value();
  const auto rs_or = partition::KdRegionOf(index.splits, query.source_coord);
  if (!rs_or.ok()) return result;
  const graph::RegionId rs = *rs_or;
  const uint32_t R = index.num_regions;

  // Pruning: regions whose minimum border distance from Rs exceeds the
  // radius can neither contain results nor carry a qualifying path.
  std::vector<graph::RegionId> needed;
  for (graph::RegionId r = 0; r < R; ++r) {
    if (r == rs || index.MinDist(rs, r) <= query.radius) needed.push_back(r);
  }
  run.cpu_ms += sw_prune.ElapsedMs();

  // Receive the needed regions (cross + local: results may be any node)
  // in broadcast order; batch-repair losses.
  std::sort(needed.begin(), needed.end(),
            [&](graph::RegionId a, graph::RegionId b) {
              const uint32_t cur = session.cycle_pos();
              auto ahead = [&](graph::RegionId r) {
                const uint32_t s = index.dir[r].cross_start;
                return s >= cur ? s - cur : s + total - cur;
              };
              return ahead(a) < ahead(b);
            });

  PartialGraph pg;
  uint32_t regions = 0;
  std::deque<broadcast::ReceivedSegment> stash;
  std::vector<PendingRepair> pending;
  auto ingest = [&](broadcast::ReceivedSegment&& seg) {
    device::Stopwatch sw;
    auto data = DecodeRegionData(seg.payload);
    if (data.ok()) {
      const size_t before = pg.MemoryBytes();
      for (const auto& rec : data->records) pg.AddRecord(rec);
      memory.Charge(pg.MemoryBytes() - before);
      ++regions;
    }
    memory.Release(seg.payload.size());
    run.cpu_ms += sw.ElapsedMs();
  };

  for (graph::RegionId r : needed) {
    const EbIndex::RegionDir& d = index.dir[r];
    for (int part = 0; part < (d.local_packets > 0 ? 2 : 1); ++part) {
      const uint32_t start = part == 0 ? d.cross_start : d.local_start;
      broadcast::ReceivedSegment seg = ReceiveSegmentAt(session, start);
      memory.Charge(seg.payload.size());
      if (seg.complete) {
        ingest(std::move(seg));
      } else {
        stash.push_back(std::move(seg));
        pending.push_back({start, &stash.back()});
      }
    }
  }
  if (!pending.empty()) {
    RepairAllSegments(session, pending, options.max_repair_cycles,
                      run.scratch().stash.missing);
    for (auto& seg : stash) ingest(std::move(seg));
  }

  // Dijkstra over the received union; nodes beyond the radius are filtered
  // out afterwards (the search could early-terminate at the radius, but
  // the received subgraph is already radius-pruned by region).
  device::Stopwatch sw_search;
  algo::SearchTree full = algo::DijkstraSearch(
      pg, query.source, graph::kInvalidNode, KnownEdgeFilter{&pg});
  for (graph::NodeId v = 0; v < full.dist.size(); ++v) {
    if (full.dist[v] <= query.radius) {
      result.nodes.emplace_back(v, full.dist[v]);
    }
  }
  std::sort(result.nodes.begin(), result.nodes.end(),
            [](const auto& a, const auto& b) {
              return a.second < b.second ||
                     (a.second == b.second && a.first < b.first);
            });
  run.cpu_ms += sw_search.ElapsedMs();

  result.metrics = run.Finish(graph::kInfDist, true);
  result.metrics.regions_received = regions;
  return result;
}

}  // namespace airindex::core
