#include "core/arcflag_on_air.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "algo/dijkstra.h"
#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/cycle_common.h"
#include "core/full_cycle.h"
#include "core/partial_graph.h"
#include "partition/kd_tree.h"

namespace airindex::core {
namespace {

constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kFlagChunkArcs = 4096;
/// Header bytes between the region count and the splits: the node and
/// arc counts, u32 each.
constexpr size_t kHeaderFixedBytes = 8;

}  // namespace

Result<std::unique_ptr<ArcFlagOnAir>> ArcFlagOnAir::Build(
    const graph::Graph& g, uint32_t num_regions, const BuildConfig& config) {
  auto sys = std::unique_ptr<ArcFlagOnAir>(new ArcFlagOnAir());
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

  broadcast::CycleBuilder builder(config.encoding);
  AppendNetworkSegments(g, &builder);

  // Header: region count + node/arc counts + kd split values (the client
  // locates the target's region from these and its received coordinate).
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

void DecodeArcFlagSegment(const broadcast::ReceivedSegment& seg,
                          uint32_t num_regions, std::span<uint64_t> flags) {
  const size_t words = algo::ArcFlagWords(num_regions);
  const size_t bytes_per_arc = 2 * static_cast<size_t>(num_regions);
  const size_t num_arcs = flags.size() / words;
  const size_t first_arc =
      static_cast<size_t>(seg.segment_id - 1) * kFlagChunkArcs;
  if (first_arc >= num_arcs) return;
  const size_t count =
      std::min(seg.payload.size() / bytes_per_arc, num_arcs - first_arc);
  const uint8_t* wire = seg.payload.data();
  const bool whole = seg.complete;
  uint64_t* out = flags.data() + first_arc * words;
  for (size_t i = 0; i < count; ++i, out += words) {
    const size_t off = i * bytes_per_arc;
    if (whole || seg.RangeOk(off, off + bytes_per_arc)) {
      algo::PackArcFlags(wire + off, num_regions, out);
    } else {
      // §6.2: a lost flag vector is assumed all-ones.
      std::fill(out, out + words, ~uint64_t{0});
    }
  }
}

device::QueryMetrics ArcFlagOnAir::RunQuery(
    const broadcast::BroadcastChannel& channel, const AirQuery& query,
    const ClientOptions& options, QueryScratch* scratch) const {
  ClientRun run(channel, StartPosition(channel, query), options, *scratch);
  QueryScratch& s = run.scratch();
  device::MemoryTracker& memory = run.memory;
  PartialGraph& pg = s.partial_graph;

  // Records decode into the pooled partial graph; flags decode straight
  // into flag words in the server's CSR arc order as each flag segment
  // arrives. Arcs of a flag segment that never arrives keep no flag.
  const size_t words = algo::ArcFlagWords(num_regions_);
  std::vector<uint64_t>& flags = s.af_flags;
  flags.assign(static_cast<size_t>(num_arcs_) * words, 0);
  std::vector<double>& splits = s.af_splits;
  splits.clear();
  bool header_ok = false;
  CsrRebuild rebuild{num_nodes_};

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
      [&](const broadcast::ReceivedSegment& seg) {
        device::Stopwatch sw;
        if (seg.type == broadcast::SegmentType::kNetworkData) {
          run.DecodeIntoPartialGraph(seg, &rebuild);
          memory.Release(seg.payload.size());
        } else if (seg.segment_id == kHeaderSegment) {
          // Only a header of this system's region count is usable; its
          // splits then form a complete kd tree.
          header_ok = ReadKdSplits(seg, num_regions_, kHeaderFixedBytes,
                                   &splits);
          memory.Charge(splits.size() * 8);
          memory.Release(seg.payload.size());
        } else {
          DecodeArcFlagSegment(seg, num_regions_, flags);
          // The modeled client retains the raw flag bytes until query
          // time: keep their charge.
        }
        run.cpu_ms += sw.ElapsedMs();
      },
      options.max_repair_cycles, s.full_cycle);

  device::Stopwatch sw;
  // The rebuild's rejections fail the query. More arcs than the flags
  // cover cannot come from this system's cycle.
  if (!header_ok || rebuild.Rejected() || rebuild.arcs > num_arcs_) {
    run.cpu_ms += sw.ElapsedMs();
    return run.Finish(graph::kInfDist, false);
  }
  // The rebuilt graph's CSR index of an arc is a per-node base plus the
  // arc's position in OutArcs: records carry each node's arcs in the
  // server's CSR order, sorted by head, which the rebuild keeps, and an
  // unreceived node holds no arcs. So the base is a prefix sum of the
  // received out-degrees in node-id order.
  std::vector<uint32_t>& arc_base = s.af_arc_base;
  arc_base.resize(rebuild.id_bound);
  uint32_t base = 0;
  for (graph::NodeId v = 0; v < rebuild.id_bound; ++v) {
    arc_base[v] = base;
    base += static_cast<uint32_t>(pg.OutArcs(v).size());
  }
  // Only the target's region matters.
  const graph::NodeId t = query.target;
  const auto target_region = partition::KdRegionOf(splits, pg.Coord(t));
  if (!target_region.ok()) {
    run.cpu_ms += sw.ElapsedMs();
    return run.Finish(graph::kInfDist, false);
  }
  memory.Charge(rebuild.ModeledCsrBytes());
  // The flag index: one eight-byte word per 64 regions per arc.
  memory.Charge(static_cast<size_t>(num_arcs_) * words * 8);

  const size_t word = *target_region / 64;
  const uint32_t bit = *target_region % 64;
  auto flagged = [&](graph::NodeId v, const graph::Graph::Arc& arc) {
    const size_t index =
        arc_base[v] + static_cast<size_t>(&arc - pg.OutArcs(v).data());
    return (flags[index * words + word] >> bit) & 1;
  };
  // Arcs into unreceived nodes are relaxed, as over the rebuilt graph, so
  // the search must address every node of it.
  pg.ReserveNodes(rebuild.nodes());
  algo::DijkstraSearch(pg, query.source, t, flagged, s.search);
  const graph::Dist dist = s.search.DistTo(t);
  run.cpu_ms += sw.ElapsedMs();
  return run.FinishFullCycle(dist, receive_status, num_nodes_);
}

}  // namespace airindex::core
