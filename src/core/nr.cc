#include "core/nr.h"

#include <optional>
#include <utility>

#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/nr_index.h"
#include "core/region_client.h"
#include "partition/kd_tree.h"

namespace airindex::core {
namespace {

using broadcast::PayloadPackets;
using broadcast::ReceivedSegment;

/// Whether the index bytes `range` arrived. A range not wholly inside the
/// payload is not intact: a segment shorter than an index (another segment
/// a wrong directory pointed at) holds no such bytes.
bool RangeIntact(const ReceivedSegment& seg,
                 std::pair<size_t, size_t> range) {
  return range.second <= seg.payload.size() &&
         seg.RangeOk(range.first, range.second);
}

/// Reads a geometry entry straight out of a (possibly holey) index payload.
NrIndex::RegionGeometry ReadGeometry(const ReceivedSegment& seg, uint32_t R,
                                     graph::RegionId r) {
  const size_t off = NrIndex::PositionRange(R, r).first;
  NrIndex::RegionGeometry g;
  g.cross_start = GetU32(seg.payload.data() + off);
  g.cross_packets = GetU16(seg.payload.data() + off + 4);
  g.local_packets = GetU16(seg.payload.data() + off + 6);
  return g;
}

}  // namespace

Result<std::unique_ptr<NrSystem>> NrSystem::Build(const graph::Graph& g,
                                                  uint32_t num_regions,
                                                  const BuildConfig& config) {
  if (num_regions > 256) {
    return Status::InvalidArgument("NR supports at most 256 regions");
  }
  AIRINDEX_ASSIGN_OR_RETURN(
      auto kd, partition::KdTreePartitioner::Build(g, num_regions));
  AIRINDEX_ASSIGN_OR_RETURN(
      auto pre, SharedBorderPrecompute(g, kd.Partition(g),
                                       config.precompute_threads));
  AIRINDEX_ASSIGN_OR_RETURN(auto sys, BuildFromPrecompute(g, *pre, config));
  sys->precompute_ = std::move(pre);
  return sys;
}

Result<std::unique_ptr<NrSystem>> NrSystem::BuildFromPrecompute(
    const graph::Graph& g, const BorderPrecompute& pre,
    const BuildConfig& config) {
  const uint32_t R = pre.num_regions;
  if (R > 256) {
    return Status::InvalidArgument("NR supports at most 256 regions");
  }
  auto sys = std::unique_ptr<NrSystem>(new NrSystem());
  sys->precompute_seconds_ = pre.seconds;
  AIRINDEX_ASSIGN_OR_RETURN(auto kd,
                            partition::KdTreePartitioner::Build(g, R));

  // Region payloads with the §4.1 cross-border/local split (NR clients
  // receive only the cross segment of intermediate regions, which is what
  // makes NR's tuning time a subset of EB's).
  std::vector<RegionPayloads> payloads =
      EncodeRegionPayloads(g, pre, config.encoding);

  // Layout: [A^0][cross_0][local_0?][A^1][cross_1]... with fixed-size local
  // indexes.
  const uint32_t index_packets = PayloadPackets(NrIndex::EncodedBytes(R));
  std::vector<NrIndex::RegionGeometry> geometry(R);
  {
    uint32_t pos = 0;
    for (graph::RegionId m = 0; m < R; ++m) {
      pos += index_packets;
      geometry[m].cross_start = pos;
      geometry[m].cross_packets =
          static_cast<uint16_t>(PayloadPackets(payloads[m].cross.size()));
      pos += geometry[m].cross_packets;
      geometry[m].local_packets =
          payloads[m].local.empty()
              ? 0
              : static_cast<uint16_t>(
                    PayloadPackets(payloads[m].local.size()));
      pos += geometry[m].local_packets;
    }
  }

  // Next-region tables: for each ordered pair, the needed-region set from
  // the pre-computation; A^m[i][j] = first needed region at or after m.
  // next_at is computed by a backward sweep over two concatenated periods
  // (resolving the wrap-around).
  std::vector<NrIndex> indexes(R);
  for (graph::RegionId m = 0; m < R; ++m) {
    auto& idx = indexes[m];
    idx.num_regions = R;
    idx.num_nodes = static_cast<uint32_t>(g.num_nodes());
    idx.region_id = m;
    idx.splits = kd.splits_bfs();
    idx.geometry = geometry;
    idx.next_region.assign(static_cast<size_t>(R) * R, 0);
  }
  std::vector<uint8_t> next_at(2 * R);
  // One reused bitset for all pairs: this loop runs R^2 times and sits on
  // the cycle-construction hot path.
  std::vector<uint64_t> needed(pre.words_per_pair());
  for (graph::RegionId i = 0; i < R; ++i) {
    for (graph::RegionId j = 0; j < R; ++j) {
      pre.NeededRegionsMask(i, j, needed.data());
      auto is_needed = [&](graph::RegionId k) {
        return (needed[k / 64] >> (k % 64)) & 1;
      };
      uint8_t next = 0;
      for (uint32_t step = 0; step < 2 * R; ++step) {
        const uint32_t m = 2 * R - 1 - step;
        const graph::RegionId r = m % R;
        if (is_needed(r)) next = static_cast<uint8_t>(r);
        next_at[m] = next;
      }
      for (graph::RegionId m = 0; m < R; ++m) {
        indexes[m].next_region[static_cast<size_t>(i) * R + j] =
            next_at[m];
      }
    }
  }

  // Assemble.
  broadcast::CycleBuilder builder(config.encoding,
                                   broadcast::DataLayout::kRegion);
  for (graph::RegionId m = 0; m < R; ++m) {
    broadcast::Segment idx_seg;
    idx_seg.type = broadcast::SegmentType::kLocalIndex;
    idx_seg.id = m;
    idx_seg.is_index = true;
    idx_seg.payload = indexes[m].Encode();
    builder.Add(std::move(idx_seg));
    broadcast::Segment cross_seg;
    cross_seg.type = broadcast::SegmentType::kNetworkData;
    cross_seg.id = m;
    cross_seg.payload = std::move(payloads[m].cross);
    builder.Add(std::move(cross_seg));
    if (!payloads[m].local.empty()) {
      broadcast::Segment local_seg;
      local_seg.type = broadcast::SegmentType::kNetworkData;
      local_seg.id = m;
      local_seg.payload = std::move(payloads[m].local);
      builder.Add(std::move(local_seg));
    }
  }
  AIRINDEX_ASSIGN_OR_RETURN(sys->cycle_, std::move(builder).Finalize());
  return sys;
}

device::QueryMetrics NrSystem::RunQuery(
    const broadcast::BroadcastChannel& channel, const AirQuery& query,
    const ClientOptions& options, QueryScratch* scratch) const {
  ClientRun run(channel, StartPosition(channel, query), options, *scratch);
  RegionClient region(run, query, options,
                      RegionClient::CacheOrder::kOnReceive);
  broadcast::ClientSession& session = run.session;
  QueryScratch& s = run.scratch();
  const uint32_t total = cycle_.total_packets();
  const bool cache_on = region.cache_on();

  // --- 1. Find and receive the next local index (every header points at
  // one; tuning in right at an index start uses that very copy) ----------
  uint32_t idx_start = 0;
  auto receive_some_index = [&](ReceivedSegment* out) {
    const std::optional<uint32_t> start = run.ReceiveNextIndex(out, 256);
    if (start.has_value()) idx_start = *start;
    return start.has_value();
  };

  // Receives the index a geometry entry points at. False when the segment
  // there is no index: the directory belongs to another cycle.
  auto fetch_index = [&](uint32_t start, ReceivedSegment* out) {
    region.Fetch(start, out);
    return out->type == broadcast::SegmentType::kLocalIndex;
  };

  std::vector<uint8_t>& received = s.region_flags;
  received.clear();
  bool mapped = false;
  graph::RegionId rs = 0, rt = 0;
  uint32_t R = 0;
  int first_index_id = -1;
  int expected_id = -1;  // id of the index currently in *idx_seg
  bool progressed = false;

  // --- 2. Chain through local indexes (Algorithm 2 + §6.2) --------------
  ReceivedSegment* idx_seg = s.segments.Acquire();
  // A warm session replays the remembered entry index instead of probing
  // the air for one — the chain then starts without the radio waking up.
  const bool entry_cached = cache_on && s.session.has_index();
  if (entry_cached) {
    idx_start = s.session.index_start();
    s.session.LoadIndex(idx_seg);
    s.session.CountHit();
  } else if (!receive_some_index(idx_seg)) {
    return region.Fail();
  }
  run.memory.Charge(idx_seg->payload.size());

  const uint32_t kMaxSteps = 2 * 256 + 32;
  for (uint32_t step = 0; step < kMaxSteps; ++step) {
    if (!mapped) {
      // The first usable index must provide the header + splits so the
      // client can locate Rs and Rt (§6.2: if the first component is lost,
      // wait for the next index).
      const uint32_t reg_count =
          idx_seg->payload.size() >= 2 && idx_seg->packet_ok[0]
              ? GetU16(idx_seg->payload.data())
              : 0;
      const bool header_ok =
          reg_count >= 2 && reg_count <= 256 &&
          RangeIntact(*idx_seg, NrIndex::SplitsRange(reg_count));
      if (!header_ok) {
        if (!receive_some_index(idx_seg)) return region.Fail();
        continue;
      }
      device::Stopwatch sw_map;
      if (!NrIndex::Decode(idx_seg->payload, &s.nr_index).ok()) {
        return region.Fail();
      }
      const auto rs_or =
          partition::KdRegionOf(s.nr_index.splits, query.source_coord);
      const auto rt_or =
          partition::KdRegionOf(s.nr_index.splits, query.target_coord);
      if (!rs_or.ok() || !rt_or.ok()) return region.Fail();
      rs = *rs_or;
      rt = *rt_or;
      R = reg_count;
      received.assign(R, 0);
      mapped = true;
      if (cache_on && !entry_cached) {
        s.session.StoreIndex(idx_start, *idx_seg);
      }
      first_index_id = static_cast<int>(s.nr_index.region_id);
      expected_id = first_index_id;
      run.cpu_ms += sw_map.ElapsedMs();
    } else if (expected_id == first_index_id && progressed) {
      break;  // wrapped around the whole cycle (Algorithm 2 guard)
    }

    // Decide the next region from the current index. Only the single cell
    // [rs][rt] plus one geometry entry are needed (§5.1's point: per local
    // index the client reads one value).
    const bool cell_ok =
        RangeIntact(*idx_seg, NrIndex::CellRange(R, rs, rt));
    graph::RegionId region_id = 0;
    NrIndex::RegionGeometry geom;
    bool have_geom = false;

    if (cell_ok) {
      const graph::RegionId next_r =
          idx_seg->payload[NrIndex::CellRange(R, rs, rt).first];
      if (next_r >= R) return region.Fail();
      if (received[next_r]) break;  // client already possesses R_nxt
      if (RangeIntact(*idx_seg, NrIndex::PositionRange(R, next_r))) {
        region_id = next_r;
        geom = ReadGeometry(*idx_seg, R, next_r);
        have_geom = true;
      }
    }
    if (!have_geom) {
      // §6.2 fallback: the needed cell (or the position of its region) was
      // lost. Receive the region adjacent to this index anyway; its
      // geometry entry is in the same index.
      region_id = static_cast<graph::RegionId>(expected_id);
      if (RangeIntact(*idx_seg, NrIndex::PositionRange(R, region_id))) {
        geom = ReadGeometry(*idx_seg, R, region_id);
        have_geom = true;
      } else {
        // Even the adjacent geometry is gone: re-listen to the missing
        // packets of this very index next cycle and try again.
        RepairSegment(session, idx_start, idx_seg, 1);
        continue;
      }
      if (received[region_id]) {
        // Nothing new adjacent; hop to the next index.
        idx_start =
            (geom.cross_start + geom.cross_packets + geom.local_packets) %
            total;
        if (!fetch_index(idx_start, idx_seg)) return region.Fail();
        expected_id = (expected_id + 1) % static_cast<int>(R);
        progressed = true;
        continue;
      }
    }

    // Receive the region's cross segment, its local segment too for an
    // endpoint region, then the adjacent next index.
    const bool want_local =
        geom.local_packets > 0 && (region_id == rs || region_id == rt);
    region.ReceiveRegion(
        geom.cross_start,
        want_local ? std::optional((geom.cross_start + geom.cross_packets) %
                                   total)
                   : std::nullopt);
    const uint32_t next_idx_start =
        (geom.cross_start + geom.cross_packets + geom.local_packets) % total;
    ReceivedSegment* next_idx = s.segments.Acquire();
    if (!fetch_index(next_idx_start, next_idx)) return region.Fail();
    received[region_id] = 1;
    progressed = true;
    s.segments.Recycle(idx_seg);
    idx_seg = next_idx;
    idx_start = next_idx_start;
    expected_id = static_cast<int>((region_id + 1) % R);
  }
  if (!mapped) return region.Fail();
  return region.Finish();
}

}  // namespace airindex::core
