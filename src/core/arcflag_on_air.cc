#include "core/arcflag_on_air.h"

#include <bit>
#include <chrono>

#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/cycle_common.h"
#include "core/full_cycle.h"

namespace airindex::core {
namespace {

constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kFlagChunkArcs = 4096;

}  // namespace

Result<std::unique_ptr<ArcFlagOnAir>> ArcFlagOnAir::Build(
    const graph::Graph& g, uint32_t num_regions, const BuildConfig& config) {
  auto sys = std::unique_ptr<ArcFlagOnAir>(new ArcFlagOnAir());
  sys->encoding_ = config.encoding;
  sys->num_regions_ = num_regions;
  sys->num_nodes_ = static_cast<uint32_t>(g.num_nodes());
  sys->num_arcs_ = static_cast<uint32_t>(g.num_arcs());

  AIRINDEX_ASSIGN_OR_RETURN(
      auto kd, partition::KdTreePartitioner::Build(g, num_regions));
  sys->splits_ = kd.splits_bfs();
  partition::Partitioning part = kd.Partition(g);

  const auto start = std::chrono::steady_clock::now();
  AIRINDEX_ASSIGN_OR_RETURN(
      sys->index_,
      algo::ArcFlagIndex::Build(g, part.node_region, num_regions,
                                config.precompute_threads));
  sys->precompute_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  broadcast::CycleBuilder builder;
  AppendNetworkSegments(g, &builder, kNetworkChunkNodes, config.encoding);

  // Header: region count + node/arc counts + kd split values (the client
  // re-derives every node's region from these plus the coordinates).
  {
    broadcast::Segment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.id = kHeaderSegment;
    PutU16(&seg.payload, static_cast<uint16_t>(num_regions));
    PutU32(&seg.payload, sys->num_nodes_);
    PutU32(&seg.payload, sys->num_arcs_);
    for (double s : sys->splits_) {
      PutU64(&seg.payload, std::bit_cast<uint64_t>(s));
    }
    builder.Add(std::move(seg));
  }

  // Flag vectors in CSR arc order, one u16 per region (see
  // ArcFlagIndex::BytesPerArc for the sizing rationale).
  const size_t bytes_per_arc = sys->index_.BytesPerArc();
  for (uint32_t first = 0; first < g.num_arcs(); first += kFlagChunkArcs) {
    broadcast::Segment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.id = 1 + first / kFlagChunkArcs;
    const uint32_t last =
        std::min<uint32_t>(first + kFlagChunkArcs, sys->num_arcs_);
    seg.payload.reserve(static_cast<size_t>(last - first) * bytes_per_arc);
    for (uint32_t a = first; a < last; ++a) {
      for (uint32_t r = 0; r < num_regions; ++r) {
        PutU16(&seg.payload, sys->index_.ArcAllowed(a, r) ? 1 : 0);
      }
    }
    builder.Add(std::move(seg));
  }
  AIRINDEX_ASSIGN_OR_RETURN(sys->cycle_, std::move(builder).Finalize(
                                             /*require_index=*/false));
  return sys;
}

device::QueryMetrics ArcFlagOnAir::RunQuery(
    const broadcast::BroadcastChannel& channel, const AirQuery& query,
    const ClientOptions& options, QueryScratch* scratch) const {
  ClientRun run(channel, StartPosition(channel, query), options, scratch);
  QueryScratch& s = run.scratch();
  device::MemoryTracker& memory = run.memory;

  // Collected network data (node-id addressed). The coordinates are moved
  // into the rebuilt Graph below, so they cannot be pooled; the edge list
  // can. Flags decode straight into the index, in the server's CSR arc
  // order, as each flag segment arrives; its node -> region map follows
  // once the header and the coordinates are in.
  std::vector<graph::Point> coords(num_nodes_);
  s.edges.reserve(num_arcs_);
  std::vector<double> splits;
  algo::ArcFlagIndex idx =
      algo::ArcFlagIndex::MakeEmpty(num_arcs_, num_regions_, {});
  const size_t bytes_per_arc = idx.BytesPerArc();
  bool header_ok = false;

  Status receive_status = ReceiveFullCycleCached(
      run.session, memory, &s.session,
      [&options](const broadcast::ReceivedSegment& seg) {
        if (seg.type == broadcast::SegmentType::kNetworkData) return true;
        // A lost flag chunk degrades to all-ones (§6.2), but a lost header
        // kills the query — the kd splits cannot be reconstructed. The
        // opt-in repair closes that gap; off by default to preserve the
        // paper's reproduction numbers.
        return options.repair_header &&
               seg.type == broadcast::SegmentType::kAuxData &&
               seg.segment_id == kHeaderSegment;
      },
      [&](broadcast::ReceivedSegment& seg) {
        device::Stopwatch sw;
        if (seg.type == broadcast::SegmentType::kNetworkData) {
          run.DecodeNetworkRecords(seg, encoding_, coords);
          memory.Release(seg.payload.size());
        } else if (seg.segment_id == kHeaderSegment) {
          if (seg.complete) {
            ByteReader reader(seg.payload);
            const uint16_t regions = reader.ReadU16();
            reader.ReadU32();  // node count (known)
            reader.ReadU32();  // arc count (known)
            splits.reserve(regions - 1);
            for (uint16_t i = 0; i + 1 < regions; ++i) {
              splits.push_back(std::bit_cast<double>(reader.ReadU64()));
            }
            header_ok = true;
          }
          memory.Charge(splits.size() * 8);
          memory.Release(seg.payload.size());
        } else {
          const size_t first_arc =
              static_cast<size_t>(seg.segment_id - 1) * kFlagChunkArcs;
          const size_t arcs_in_chunk = seg.payload.size() / bytes_per_arc;
          for (size_t i = 0; i < arcs_in_chunk; ++i) {
            const size_t arc = first_arc + i;
            const size_t off = i * bytes_per_arc;
            if (!seg.RangeOk(off, off + bytes_per_arc)) {
              // §6.2: a lost flag vector is assumed all-ones.
              idx.SetAllFlags(arc);
              continue;
            }
            for (uint32_t r = 0; r < num_regions_; ++r) {
              if (GetU16(seg.payload.data() + off + 2 * r) != 0) {
                idx.SetArcFlag(arc, r);
              }
            }
          }
          // The modeled client retains the raw flag bytes until query
          // time: keep their charge.
        }
        run.cpu_ms += sw.ElapsedMs();
      },
      options.max_repair_cycles, s.full_cycle);

  device::Stopwatch sw;
  // Rebuild the graph; CSR layout matches the server's (same edges, same
  // per-node sort order).
  auto built = graph::Graph::Build(std::move(coords), s.edges);
  if (!built.ok() || !header_ok) {
    // Without splits there is no region mapping; ArcFlag cannot run.
    run.cpu_ms += sw.ElapsedMs();
    return run.Finish(graph::kInfDist, false);
  }
  graph::Graph gr = std::move(built).value();
  memory.Charge(gr.MemoryBytes());

  auto kd = partition::KdTreePartitioner::FromSplits(splits);
  std::vector<graph::RegionId> node_region(gr.num_nodes());
  for (graph::NodeId v = 0; v < gr.num_nodes(); ++v) {
    node_region[v] = kd->RegionOf(gr.Coord(v));
  }

  idx.set_node_region(std::move(node_region));
  memory.Charge(idx.MemoryBytes());

  graph::Path path = idx.Query(gr, query.source, query.target, s.search);
  run.cpu_ms += sw.ElapsedMs();
  return run.Finish(path.dist, receive_status.ok() && path.found());
}

}  // namespace airindex::core
