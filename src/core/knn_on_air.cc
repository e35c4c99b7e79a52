#include "core/knn_on_air.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "algo/dijkstra.h"
#include "core/client_run.h"
#include "core/partial_graph.h"
#include "core/region_data.h"
#include "core/repair.h"
#include "partition/kd_tree.h"

namespace airindex::core {

KnnResult RunKnnQuery(const EbSystem& system,
                      const broadcast::BroadcastChannel& channel,
                      const KnnQuery& query,
                      const std::vector<graph::NodeId>& poi_nodes,
                      const ClientOptions& options) {
  KnnResult result;
  if (query.k == 0) {
    result.metrics.ok = true;
    return result;
  }
  ClientRun run(channel, TuneInPosition(system.cycle(), query.tune_phase),
                options, nullptr);
  broadcast::ClientSession& session = run.session;
  device::MemoryTracker& memory = run.memory;

  // Receive the next index copy.
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

  device::Stopwatch sw_setup;
  auto index_or = EbIndex::Decode(index_seg.payload);
  if (!index_or.ok()) return result;
  const EbIndex index = std::move(index_or).value();
  const auto rs_or = partition::KdRegionOf(index.splits, query.source_coord);
  if (!rs_or.ok()) return result;
  const graph::RegionId rs = *rs_or;
  const uint32_t R = index.num_regions;

  // Regions by ascending minimum network distance from Rs (Rs itself
  // first, at distance 0).
  std::vector<std::pair<graph::Dist, graph::RegionId>> frontier;
  for (graph::RegionId r = 0; r < R; ++r) {
    const graph::Dist d = r == rs ? 0 : index.MinDist(rs, r);
    if (d != graph::kInfDist) frontier.emplace_back(d, r);
  }
  std::sort(frontier.begin(), frontier.end());

  std::vector<uint8_t> is_poi;
  for (graph::NodeId p : poi_nodes) {
    if (p >= is_poi.size()) is_poi.resize(p + 1, 0);
    is_poi[p] = 1;
  }
  run.cpu_ms += sw_setup.ElapsedMs();

  PartialGraph pg;
  uint32_t regions = 0;
  auto receive_region = [&](graph::RegionId r) {
    const EbIndex::RegionDir& d = index.dir[r];
    std::deque<broadcast::ReceivedSegment> segs;
    std::vector<PendingRepair> pending;
    for (int part = 0; part < (d.local_packets > 0 ? 2 : 1); ++part) {
      const uint32_t start = part == 0 ? d.cross_start : d.local_start;
      segs.push_back(ReceiveSegmentAt(session, start));
      memory.Charge(segs.back().payload.size());
      if (!segs.back().complete) pending.push_back({start, &segs.back()});
    }
    if (!pending.empty()) {
      RepairAllSegments(session, pending, options.max_repair_cycles,
                        run.scratch().stash.missing);
    }
    device::Stopwatch sw;
    for (auto& seg : segs) {
      auto data = DecodeRegionData(seg.payload);
      if (data.ok()) {
        const size_t before = pg.MemoryBytes();
        for (const auto& rec : data->records) pg.AddRecord(rec);
        memory.Charge(pg.MemoryBytes() - before);
      }
      memory.Release(seg.payload.size());
    }
    ++regions;
    run.cpu_ms += sw.ElapsedMs();
  };

  // Incremental expansion: receive the next-closest region, re-evaluate
  // the k-th best POI distance over the received union, stop once the next
  // region cannot possibly improve it.
  auto kth_best = [&]() -> graph::Dist {
    device::Stopwatch sw;
    algo::SearchTree tree = algo::DijkstraSearch(
        pg, query.source, graph::kInvalidNode, KnownEdgeFilter{&pg});
    std::vector<std::pair<graph::Dist, graph::NodeId>> found;
    for (graph::NodeId v = 0;
         v < std::min<size_t>(tree.dist.size(), is_poi.size()); ++v) {
      if (is_poi[v] && tree.dist[v] != graph::kInfDist) {
        found.emplace_back(tree.dist[v], v);
      }
    }
    std::sort(found.begin(), found.end());
    if (found.size() > query.k) found.resize(query.k);
    result.neighbors.clear();
    for (auto [d, v] : found) result.neighbors.emplace_back(v, d);
    run.cpu_ms += sw.ElapsedMs();
    return found.size() == query.k ? found.back().first : graph::kInfDist;
  };

  graph::Dist bound = graph::kInfDist;
  for (size_t i = 0; i < frontier.size(); ++i) {
    if (frontier[i].first > bound) break;  // no region can improve the kNN
    receive_region(frontier[i].second);
    bound = kth_best();
  }

  result.metrics = run.Finish(graph::kInfDist, true);
  result.metrics.regions_received = regions;
  return result;
}

}  // namespace airindex::core
