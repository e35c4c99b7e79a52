#include "core/landmark_on_air.h"

#include <chrono>

#include "algo/astar.h"
#include "broadcast/packet.h"
#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/cycle_common.h"
#include "core/full_cycle.h"
#include "core/partial_graph.h"

namespace airindex::core {
namespace {

/// Aux segment ids: 0 = header (landmark ids), 1+i = i-th distance-vector
/// chunk.
constexpr uint32_t kHeaderSegment = 0;
constexpr uint32_t kVecChunkNodes = 512;
constexpr uint32_t kInfU32 = 0xFFFFFFFFu;

uint32_t SaturateDist(graph::Dist d) {
  return d >= kInfU32 ? kInfU32 : static_cast<uint32_t>(d);
}

graph::Dist Unsaturate(uint32_t v) {
  return v == kInfU32 ? graph::kInfDist : v;
}

}  // namespace

Result<std::unique_ptr<LandmarkOnAir>> LandmarkOnAir::Build(
    const graph::Graph& g, uint32_t num_landmarks, uint64_t seed,
    const BuildConfig& config) {
  auto sys = std::unique_ptr<LandmarkOnAir>(new LandmarkOnAir());
  sys->num_nodes_ = static_cast<uint32_t>(g.num_nodes());

  const auto start = std::chrono::steady_clock::now();
  AIRINDEX_ASSIGN_OR_RETURN(
      sys->index_, algo::LandmarkIndex::Build(g, num_landmarks, seed));
  sys->precompute_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const algo::LandmarkIndex& idx = sys->index_;
  const uint32_t k = idx.num_landmarks();
  broadcast::CycleBuilder builder(config.encoding);
  AppendNetworkSegments(g, &builder);

  // Header: landmark count + node count + landmark ids.
  {
    broadcast::Segment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.id = kHeaderSegment;
    PutU16(&seg.payload, static_cast<uint16_t>(k));
    PutU32(&seg.payload, sys->num_nodes_);
    for (graph::NodeId l : idx.landmarks()) PutU32(&seg.payload, l);
    builder.Add(std::move(seg));
  }
  // Distance vectors: per node, k "to" then k "from" u32 values, chunked.
  for (uint32_t first = 0; first < g.num_nodes(); first += kVecChunkNodes) {
    broadcast::Segment seg;
    seg.type = broadcast::SegmentType::kAuxData;
    seg.id = 1 + first / kVecChunkNodes;
    const uint32_t last = std::min<uint32_t>(first + kVecChunkNodes,
                                             static_cast<uint32_t>(
                                                 g.num_nodes()));
    seg.payload.reserve(static_cast<size_t>(last - first) * k * 8);
    for (uint32_t v = first; v < last; ++v) {
      for (uint32_t l = 0; l < k; ++l) {
        PutU32(&seg.payload, SaturateDist(idx.ToLandmark(l, v)));
      }
      for (uint32_t l = 0; l < k; ++l) {
        PutU32(&seg.payload, SaturateDist(idx.FromLandmark(l, v)));
      }
    }
    builder.Add(std::move(seg));
  }
  AIRINDEX_ASSIGN_OR_RETURN(sys->cycle_, std::move(builder).Finalize(
                                             /*require_index=*/false));
  return sys;
}

device::QueryMetrics LandmarkOnAir::RunQuery(
    const broadcast::BroadcastChannel& channel, const AirQuery& query,
    const ClientOptions& options, QueryScratch* scratch) const {
  ClientRun run(channel, StartPosition(channel, query), options, *scratch);
  QueryScratch& s = run.scratch();
  device::MemoryTracker& memory = run.memory;
  PartialGraph& pg = s.partial_graph;
  // The header's landmark count k and node count n: the vectors cover
  // nodes 0 .. n - 1, whatever the system's own node count.
  uint32_t k = 0;
  uint32_t n = 0;
  // to_vec[v * k + l] = d(v, L_l) and from_vec likewise d(L_l, v), as the
  // u32 values broadcast (kInfU32 for unreachable).
  std::vector<uint32_t>& to_vec = s.ld_to;
  std::vector<uint32_t>& from_vec = s.ld_from;
  to_vec.clear();
  from_vec.clear();

  auto handle_aux = [&](const broadcast::ReceivedSegment& seg) {
    if (seg.segment_id == kHeaderSegment) {
      // No landmarks -> zero bounds.
      if (!seg.complete || seg.payload.size() < 6) return;
      ByteReader reader(seg.payload);
      k = reader.ReadU16();
      n = reader.ReadU32();
      // The landmark ids follow; the bounds need only the vectors.
      to_vec.assign(static_cast<size_t>(k) * n, kInfU32);
      from_vec.assign(static_cast<size_t>(k) * n, kInfU32);
      memory.Charge(to_vec.size() * 4 * 2);
      return;
    }
    if (k == 0) return;  // header lost: vectors unusable (§6.2 fallback)
    const uint64_t first =
        static_cast<uint64_t>(seg.segment_id - 1) * kVecChunkNodes;
    const size_t stride = static_cast<size_t>(k) * 8;
    const size_t count = seg.payload.size() / stride;
    for (size_t i = 0; i < count && first + i < n; ++i) {
      const size_t off = i * stride;
      // Skip vectors touched by a lost packet (lower bound falls back to 0).
      if (!seg.RangeOk(off, off + stride)) continue;
      const size_t base = (first + i) * k;
      for (uint32_t l = 0; l < k; ++l) {
        to_vec[base + l] = GetU32(seg.payload.data() + off + 4 * l);
        from_vec[base + l] = GetU32(seg.payload.data() + off + 4 * (k + l));
      }
    }
  };

  Status receive_status = ReceiveFullCycleCached(
      run.session, memory, &s.session,
      [](const broadcast::ReceivedSegment& seg) {
        // Only adjacency must be complete; lost vectors degrade the bound.
        return seg.type == broadcast::SegmentType::kNetworkData;
      },
      [&](const broadcast::ReceivedSegment& seg) {
        device::Stopwatch sw;
        if (seg.type == broadcast::SegmentType::kNetworkData) {
          const size_t before = pg.MemoryBytes();
          run.DecodeIntoPartialGraph(seg);
          memory.Charge(pg.MemoryBytes() - before);
        } else {
          handle_aux(seg);
        }
        memory.Release(seg.payload.size());
        run.cpu_ms += sw.ElapsedMs();
      },
      options.max_repair_cycles, s.full_cycle);

  device::Stopwatch sw;
  const graph::NodeId t = query.target;
  auto lower_bound = [&](graph::NodeId v) -> graph::Dist {
    // A node the header's vectors do not cover gets 0, still admissible.
    if (v >= n || t >= n) return 0;
    const size_t vb = static_cast<size_t>(v) * k;
    const size_t tb = static_cast<size_t>(t) * k;
    graph::Dist best = 0;
    for (uint32_t l = 0; l < k; ++l) {
      const graph::Dist v_to = Unsaturate(to_vec[vb + l]);
      const graph::Dist t_to = Unsaturate(to_vec[tb + l]);
      const graph::Dist v_from = Unsaturate(from_vec[vb + l]);
      const graph::Dist t_from = Unsaturate(from_vec[tb + l]);
      if (v_to != graph::kInfDist && t_to != graph::kInfDist && v_to > t_to) {
        best = std::max(best, v_to - t_to);
      }
      if (v_from != graph::kInfDist && t_from != graph::kInfDist &&
          t_from > v_from) {
        best = std::max(best, t_from - v_from);
      }
    }
    return best;
  };
  // A* relaxes arcs into nodes never received (a lost segment's), whose
  // ids the search must be able to address.
  pg.ReserveNodes(num_nodes_);
  algo::AStarSearch(pg, query.source, query.target, lower_bound, s.search);
  const graph::Dist dist = s.search.DistTo(query.target);
  run.cpu_ms += sw.ElapsedMs();
  return run.FinishFullCycle(dist, receive_status, num_nodes_);
}

}  // namespace airindex::core
