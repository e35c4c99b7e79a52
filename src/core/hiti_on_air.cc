#include "core/hiti_on_air.h"

#include <bit>
#include <chrono>

#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/cycle_common.h"
#include "core/full_cycle.h"
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
  sys->encoding_ = config.encoding;
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

  broadcast::CycleBuilder builder;
  AppendNetworkSegments(g, &builder, kNetworkChunkNodes, config.encoding);

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
  ClientRun run(channel, StartPosition(channel, query), options, scratch);
  QueryScratch& s = run.scratch();
  device::MemoryTracker& memory = run.memory;

  // coords/subs are moved into the rebuilt Graph / HiTiIndex below, so
  // they cannot be pooled; the edge list (scratch) can.
  // Sized to the network so that a lost network segment leaves its nodes
  // arc-less, not out of range of the query endpoints and border lists.
  std::vector<graph::Point> coords(num_nodes_);
  std::vector<double> splits;
  std::vector<algo::HiTiIndex::SubgraphInfo> subs(2 * num_regions_);
  bool header_ok = false;

  Status receive_status = ReceiveFullCycleCached(
      run.session, memory, &s.session,
      [](const broadcast::ReceivedSegment&) {
        return true;  // the index must be complete to be usable
      },
      [&](broadcast::ReceivedSegment& seg) {
        device::Stopwatch sw;
        if (seg.type == broadcast::SegmentType::kNetworkData) {
          run.DecodeNetworkRecords(seg, encoding_, coords);
        } else if (seg.segment_id == kHeaderSegment) {
          if (seg.complete && seg.payload.size() >= 6) {
            ByteReader reader(seg.payload);
            const uint16_t regions = reader.ReadU16();
            reader.ReadU32();
            for (uint16_t i = 0; i + 1 < regions; ++i) {
              splits.push_back(std::bit_cast<double>(reader.ReadU64()));
            }
            header_ok = true;
            memory.Charge(splits.size() * 8);
          }
        } else if (seg.segment_id < subs.size()) {
          // A table with holes (the repair budget ran out) would read zero
          // bytes as border ids and sizes; the receive reports DataLoss.
          ByteReader reader(seg.payload);
          if (seg.complete && seg.payload.size() >= 4) {
            const uint32_t nb = reader.ReadU32();
            auto& sub = subs[seg.segment_id];
            sub.border.reserve(nb);
            for (uint32_t i = 0; i < nb; ++i) {
              sub.border.push_back(reader.ReadU32());
            }
            sub.dmat.reserve(static_cast<size_t>(nb) * nb);
            for (size_t i = 0; i < static_cast<size_t>(nb) * nb; ++i) {
              const uint32_t v = reader.ReadU32();
              sub.dmat.push_back(v == kInfU32 ? graph::kInfDist : v);
            }
            sub.next_hop.reserve(static_cast<size_t>(nb) * nb);
            for (size_t i = 0; i < static_cast<size_t>(nb) * nb; ++i) {
              sub.next_hop.push_back(reader.ReadU32());
            }
            memory.Charge(nb * 4 + static_cast<size_t>(nb) * nb * 12);
          }
        }
        memory.Release(seg.payload.size());
        run.cpu_ms += sw.ElapsedMs();
      },
      options.max_repair_cycles, s.full_cycle);

  device::Stopwatch sw;
  graph::Dist dist = graph::kInfDist;
  auto built = graph::Graph::Build(std::move(coords), s.edges);
  if (built.ok() && header_ok) {
    graph::Graph gr = std::move(built).value();
    memory.Charge(gr.MemoryBytes());
    auto kd = partition::KdTreePartitioner::FromSplits(splits);
    if (kd.ok()) {
      algo::HiTiIndex idx = algo::HiTiIndex::FromTables(
          num_regions_, kd->Partition(gr), std::move(subs));
      size_t settled = 0;
      dist = idx.QueryDistance(gr, query.source, query.target, &settled);
    }
  }
  run.cpu_ms += sw.ElapsedMs();
  return run.Finish(dist, receive_status.ok() && dist != graph::kInfDist);
}

}  // namespace airindex::core
