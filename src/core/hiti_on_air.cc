#include "core/hiti_on_air.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/cycle_common.h"
#include "core/full_cycle.h"
#include "core/partial_graph.h"
#include "partition/kd_tree.h"

namespace airindex::core {
namespace {

constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kInfU32 = 0xFFFFFFFFu;

uint32_t SaturateDist(graph::Dist d) {
  if (d == graph::kInfDist) return kInfU32;
  return d >= kInfU32 ? kInfU32 - 1 : static_cast<uint32_t>(d);
}

}  // namespace

Result<std::unique_ptr<HiTiOnAir>> HiTiOnAir::Build(const graph::Graph& g,
                                                    uint32_t num_regions,
                                                    const BuildConfig& config) {
  auto sys = std::unique_ptr<HiTiOnAir>(new HiTiOnAir());
  sys->num_regions_ = num_regions;
  sys->num_nodes_ = static_cast<uint32_t>(g.num_nodes());

  AIRINDEX_ASSIGN_OR_RETURN(
      auto kd, partition::KdTreePartitioner::Build(g, num_regions));
  sys->splits_ = kd.splits_bfs();

  const auto start = std::chrono::steady_clock::now();
  AIRINDEX_ASSIGN_OR_RETURN(
      sys->index_,
      algo::HiTiIndex::Build(g, kd, config.precompute_threads));
  sys->precompute_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  broadcast::CycleBuilder builder(config.encoding);
  AppendNetworkSegments(g, &builder);

  // Header: region count + node count + kd splits.
  {
    broadcast::Segment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.id = kHeaderSegment;
    PutU16(&seg.payload, static_cast<uint16_t>(num_regions));
    PutU32(&seg.payload, static_cast<uint32_t>(g.num_nodes()));
    for (double s : sys->splits_) {
      PutU64(&seg.payload, std::bit_cast<uint64_t>(s));
    }
    builder.Add(std::move(seg));
  }
  // One aux segment per hierarchy sub-graph: border list + distance matrix
  // + first-hop matrix (HiTi stores path views, not just distances).
  for (uint32_t h = 1; h < 2 * num_regions; ++h) {
    const auto& sub = sys->index_.Info(h);
    broadcast::Segment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.id = h;
    PutU32(&seg.payload, static_cast<uint32_t>(sub.border.size()));
    for (graph::NodeId b : sub.border) PutU32(&seg.payload, b);
    for (graph::Dist d : sub.dmat) PutU32(&seg.payload, SaturateDist(d));
    for (graph::NodeId hop : sub.next_hop) PutU32(&seg.payload, hop);
    builder.Add(std::move(seg));
  }
  AIRINDEX_ASSIGN_OR_RETURN(sys->cycle_, std::move(builder).Finalize(
                                             /*require_index=*/false));
  return sys;
}

device::QueryMetrics HiTiOnAir::RunQuery(
    const broadcast::BroadcastChannel& channel, const AirQuery& query,
    const ClientOptions& options, QueryScratch* scratch) const {
  ClientRun run(channel, StartPosition(channel, query), options, *scratch);
  QueryScratch& s = run.scratch();
  device::MemoryTracker& memory = run.memory;

  CsrRebuild rebuild{num_nodes_};
  const uint32_t R = num_regions_;
  std::vector<double> splits;
  // The tables are moved into the query-time HiTiIndex below.
  std::vector<algo::HiTiIndex::SubgraphInfo> subs(2 * R);
  std::vector<uint8_t> have_table(2 * R, 0);
  bool header_ok = false;

  Status receive_status = ReceiveFullCycleCached(
      run.session, memory, &s.session,
      [](const broadcast::ReceivedSegment&) {
        return true;  // the index must be complete to be usable
      },
      [&](const broadcast::ReceivedSegment& seg) {
        device::Stopwatch sw;
        // A segment with holes (the repair budget ran out) would read zero
        // bytes as counts and ids; the receive reports DataLoss for it.
        if (seg.type == broadcast::SegmentType::kNetworkData) {
          run.DecodeIntoPartialGraph(seg, &rebuild);
        } else if (seg.segment_id == kHeaderSegment) {
          // Only a header of this system's region count is usable; a u32
          // node count sits between the count and the splits.
          if (!header_ok && ReadKdSplits(seg, R, 4, &splits)) {
            header_ok = true;
            memory.Charge(splits.size() * 8);
          }
        } else if (seg.segment_id < subs.size() && seg.complete) {
          // A table is its border count nb, nb border ids, then the nb x nb
          // distance and first-hop matrices, four bytes an entry. A table
          // of another length is skipped.
          const size_t size = seg.payload.size();
          ByteReader reader(seg.payload);
          const uint64_t nb = size >= 4 ? reader.ReadU32() : 0;
          const uint64_t cells = nb * nb;  // nb < size: cannot overflow
          if (size >= 4 && nb < size && size == 4 + 4 * nb + 8 * cells) {
            have_table[seg.segment_id] = 1;
            auto& sub = subs[seg.segment_id];
            sub.border.resize(nb);
            for (auto& b : sub.border) b = reader.ReadU32();
            sub.dmat.resize(cells);
            for (auto& d : sub.dmat) {
              const uint32_t v = reader.ReadU32();
              d = v == kInfU32 ? graph::kInfDist : v;
            }
            sub.next_hop.resize(cells);
            for (auto& hop : sub.next_hop) hop = reader.ReadU32();
            memory.Charge(nb * 4 + cells * 12);
          }
        }
        memory.Release(seg.payload.size());
        run.cpu_ms += sw.ElapsedMs();
      },
      options.max_repair_cycles, s.full_cycle);

  device::Stopwatch sw;
  graph::Dist dist = graph::kInfDist;
  if (!rebuild.Rejected() && header_ok) {
    memory.Charge(rebuild.ModeledCsrBytes());
    // The overlay search is exact only over every table.
    if (std::all_of(have_table.begin() + 1, have_table.end(),
                    [](uint8_t have) { return have != 0; })) {
      // Every node of the rebuilt graph is labelled by its coordinate,
      // Point{} for a node never received. The header held R - 1 splits,
      // a complete kd tree: Build made one of R regions.
      PartialGraph& pg = s.partial_graph;
      pg.ReserveNodes(rebuild.nodes());
      std::vector<graph::RegionId> labels(rebuild.nodes());
      for (graph::NodeId v = 0; v < labels.size(); ++v) {
        labels[v] = partition::KdRegionOf(splits, pg.Coord(v)).value();
      }
      algo::HiTiIndex idx = algo::HiTiIndex::FromTables(
          R, partition::MakePartitioning(std::move(labels), R),
          std::move(subs));
      dist = idx.QueryDistance(pg, query.source, query.target);
    }
  }
  run.cpu_ms += sw.ElapsedMs();
  return run.FinishFullCycle(dist, receive_status, num_nodes_);
}

}  // namespace airindex::core
