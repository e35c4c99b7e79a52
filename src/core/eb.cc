#include "core/eb.h"

#include <algorithm>
#include <optional>

#include "broadcast/interleave.h"
#include "common/byte_io.h"
#include "core/client_run.h"
#include "core/region_client.h"
#include "partition/kd_tree.h"

namespace airindex::core {
namespace {

using broadcast::kPayloadSize;
using broadcast::PayloadPackets;
using broadcast::ReceivedSegment;

/// Re-listens to the given still-missing packets of an index segment at
/// another copy located at `copy_start` (copies are byte-identical, so the
/// segment is assembled from that copy on). A `copy_start` the index names
/// that is not the start of an index segment of the same length repairs
/// nothing.
void RepairIndexPackets(broadcast::ClientSession& session,
                        uint32_t copy_start,
                        const std::vector<uint32_t>& seqs,
                        ReceivedSegment* seg) {
  const broadcast::BroadcastCycle& cycle = session.cycle();
  const uint32_t copy = cycle.SegmentAt(copy_start);
  if (copy_start < cycle.total_packets() &&
      cycle.SegmentStart(copy) == copy_start &&
      cycle.segment(copy).is_index &&
      cycle.segment(copy).payload.size() == seg->payload.size()) {
    seg->segment_index = copy;
    for (uint32_t seq : seqs) {
      if (seg->packet_ok[seq]) continue;
      session.SleepUntilCyclePos(copy_start + seq);
      auto view = session.ReceiveNext();
      if (view.has_value()) broadcast::AcceptPacket(*view, seg);
    }
  }
  seg->complete = std::all_of(seg->packet_ok.begin(), seg->packet_ok.end(),
                              [](bool b) { return b; });
}

/// Overwrites `*out` with the packets covering the needed byte ranges that
/// are still missing, ascending.
void MissingNeededPackets(
    const ReceivedSegment& seg,
    const std::vector<std::pair<size_t, size_t>>& ranges,
    std::vector<uint32_t>* out) {
  std::vector<uint32_t>& missing = *out;
  missing.clear();
  for (auto [begin, end] : ranges) {
    end = std::min(end, seg.payload.size());
    if (begin >= end) continue;
    const uint32_t first = static_cast<uint32_t>(begin / kPayloadSize);
    const uint32_t last = static_cast<uint32_t>((end - 1) / kPayloadSize);
    for (uint32_t p = first; p <= last && p < seg.packet_ok.size(); ++p) {
      if (!seg.packet_ok[p]) missing.push_back(p);
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
}

}  // namespace

Result<std::unique_ptr<EbSystem>> EbSystem::Build(const graph::Graph& g,
                                                  uint32_t num_regions,
                                                  const BuildConfig& config) {
  AIRINDEX_ASSIGN_OR_RETURN(
      auto kd, partition::KdTreePartitioner::Build(g, num_regions));
  AIRINDEX_ASSIGN_OR_RETURN(
      auto pre, SharedBorderPrecompute(g, kd.Partition(g),
                                       config.precompute_threads));
  AIRINDEX_ASSIGN_OR_RETURN(auto sys, BuildFromPrecompute(g, *pre, config));
  sys->precompute_ = std::move(pre);
  return sys;
}

Result<std::unique_ptr<EbSystem>> EbSystem::BuildFromPrecompute(
    const graph::Graph& g, const BorderPrecompute& pre,
    const BuildConfig& config) {
  const uint32_t R = pre.num_regions;
  auto sys = std::unique_ptr<EbSystem>(new EbSystem());
  sys->precompute_seconds_ = pre.seconds;

  // Recover the split sequence from the partitioning's kd tree: the
  // partitioner is rebuilt here so EB stays decoupled from how `pre` was
  // produced. (Partition() of the rebuilt tree equals pre.part by
  // construction.)
  AIRINDEX_ASSIGN_OR_RETURN(auto kd,
                            partition::KdTreePartitioner::Build(g, R));

  // --- Region data segments -------------------------------------------
  std::vector<RegionPayloads> payloads =
      EncodeRegionPayloads(g, pre, config.encoding);

  uint32_t data_packets = 0;
  for (const auto& p : payloads) {
    data_packets += PayloadPackets(p.cross.size());
    if (!p.local.empty()) data_packets += PayloadPackets(p.local.size());
  }

  // --- (1,m) interleaving ----------------------------------------------
  // Index size depends (weakly, via the copy list) on m; one fixed-point
  // round suffices.
  uint32_t m = 1;
  uint32_t index_packets = PayloadPackets(EbIndex::EncodedBytes(R, 1));
  for (int iter = 0; iter < 3; ++iter) {
    m = broadcast::OptimalInterleaving(data_packets, index_packets);
    index_packets = PayloadPackets(EbIndex::EncodedBytes(R, m));
  }
  sys->interleaving_m_ = m;

  // --- Layout: index copies forced between regions ----------------------
  // Greedy: place a copy before region r whenever ~data_packets/m data
  // packets have passed since the last copy.
  std::vector<uint8_t> copy_before(R, 0);
  copy_before[0] = 1;
  {
    const double spacing =
        static_cast<double>(data_packets) / static_cast<double>(m);
    double acc = 0;
    uint32_t copies = 1;
    for (graph::RegionId r = 0; r < R; ++r) {
      if (r != 0 && acc >= spacing && copies < m) {
        copy_before[r] = 1;
        ++copies;
        acc = 0;
      }
      acc += PayloadPackets(payloads[r].cross.size());
      if (!payloads[r].local.empty()) {
        acc += PayloadPackets(payloads[r].local.size());
      }
    }
    m = copies;  // actual number of copies laid out
  }

  // --- Compute final positions ------------------------------------------
  EbIndex index;
  index.num_regions = R;
  index.num_nodes = static_cast<uint32_t>(g.num_nodes());
  index.splits = kd.splits_bfs();
  index.min_rr = pre.min_rr;
  index.max_rr = pre.max_rr;
  index.dir.resize(R);
  index_packets = PayloadPackets(EbIndex::EncodedBytes(R, m));

  uint32_t pos = 0;
  for (graph::RegionId r = 0; r < R; ++r) {
    if (copy_before[r]) {
      index.copy_starts.push_back(pos);
      pos += index_packets;
    }
    index.dir[r].cross_start = pos;
    index.dir[r].cross_packets = PayloadPackets(payloads[r].cross.size());
    pos += index.dir[r].cross_packets;
    if (!payloads[r].local.empty()) {
      index.dir[r].local_start = pos;
      index.dir[r].local_packets = PayloadPackets(payloads[r].local.size());
      pos += index.dir[r].local_packets;
    } else {
      index.dir[r].local_start = 0;
      index.dir[r].local_packets = 0;
    }
  }

  // --- Assemble ----------------------------------------------------------
  std::vector<uint8_t> index_payload = index.Encode();
  if (PayloadPackets(index_payload.size()) != index_packets) {
    return Status::Internal("EB index size drifted during layout");
  }
  broadcast::CycleBuilder builder(config.encoding,
                                   broadcast::DataLayout::kRegion);
  uint32_t copy_id = 0;
  for (graph::RegionId r = 0; r < R; ++r) {
    if (copy_before[r]) {
      broadcast::Segment seg;
      seg.type = broadcast::SegmentType::kGlobalIndex;
      seg.id = copy_id++;
      seg.is_index = true;
      seg.payload = index_payload;
      builder.Add(std::move(seg));
    }
    broadcast::Segment cross;
    cross.type = broadcast::SegmentType::kNetworkData;
    cross.id = r;
    cross.payload = std::move(payloads[r].cross);
    builder.Add(std::move(cross));
    if (!payloads[r].local.empty()) {
      broadcast::Segment local;
      local.type = broadcast::SegmentType::kNetworkData;
      local.id = r;
      local.payload = std::move(payloads[r].local);
      builder.Add(std::move(local));
    }
  }
  sys->index_ = std::move(index);
  AIRINDEX_ASSIGN_OR_RETURN(sys->cycle_, std::move(builder).Finalize());
  return sys;
}

device::QueryMetrics EbSystem::RunQuery(
    const broadcast::BroadcastChannel& channel, const AirQuery& query,
    const ClientOptions& options, QueryScratch* scratch) const {
  ClientRun run(channel, StartPosition(channel, query), options, *scratch);
  RegionClient region(run, query, options,
                      RegionClient::CacheOrder::kWholeRegion);
  broadcast::ClientSession& session = run.session;
  QueryScratch& s = run.scratch();
  const uint32_t total = cycle_.total_packets();
  const bool cache_on = region.cache_on();

  // --- 1. Find and receive the next index copy (tuning in right at an
  // index start uses that very copy). A warm session skips the probe
  // entirely: the cached index copy stands in for tuning in, so the radio
  // stays asleep until a region the session has not cached. ---------------
  uint32_t index_start = 0;
  ReceivedSegment* index_seg = s.segments.Acquire();
  if (cache_on && s.session.has_index()) {
    index_start = s.session.index_start();
    s.session.LoadIndex(index_seg);
    s.session.CountHit();
  } else {
    const std::optional<uint32_t> start = run.ReceiveNextIndex(index_seg, 64);
    // No probe arrived: the channel is effectively dead.
    if (!start.has_value()) return region.Fail();
    index_start = *start;
    if (cache_on) s.session.StoreIndex(index_start, *index_seg);
  }
  run.memory.Charge(index_seg->payload.size());

  // --- 2. Make sure the needed index bytes arrived (§6.2) ---------------
  // Region mapping first: header + splits live at the payload front; the
  // needed matrix row/column depends on Rs/Rt which need the splits. The
  // ranges in s.eb_ranges are what must be intact.
  std::vector<uint32_t>& missing = s.eb_missing;
  auto ensure_ranges = [&]() -> bool {
    for (int attempt = 0; attempt <= options.max_repair_cycles; ++attempt) {
      MissingNeededPackets(*index_seg, s.eb_ranges, &missing);
      if (missing.empty()) return true;
      // Prefer the next copy if we already know the copy list; fall back to
      // this copy next cycle.
      uint32_t repair_start = index_start;
      if (EbIndex::DecodeCopyStarts(index_seg->payload, &s.eb_index) &&
          !s.eb_index.copy_starts.empty()) {
        const auto& copies = s.eb_index.copy_starts;
        const uint32_t cur = session.cycle_pos();
        uint32_t best = copies.front();
        uint32_t best_ahead = UINT32_MAX;
        for (uint32_t c : copies) {
          const uint32_t first_missing = (c + missing.front()) % total;
          const uint32_t ahead = first_missing >= cur
                                     ? first_missing - cur
                                     : first_missing + total - cur;
          if (ahead < best_ahead) {
            best_ahead = ahead;
            best = c;
          }
        }
        repair_start = best;
      }
      RepairIndexPackets(session, repair_start, missing, index_seg);
    }
    MissingNeededPackets(*index_seg, s.eb_ranges, &missing);
    return missing.empty();
  };
  auto ensure_prefix = [&](size_t bytes) {
    s.eb_ranges.assign(1, {0, bytes});
    return ensure_ranges();
  };

  if (!ensure_prefix(std::min<size_t>(index_seg->payload.size(), 6))) {
    return region.Fail();
  }
  const uint32_t R =
      index_seg->payload.size() >= 2 ? GetU16(index_seg->payload.data()) : 0;
  if (R < 2) return region.Fail();
  // Header + splits.
  if (!ensure_prefix(6 + (static_cast<size_t>(R) - 1) * 8)) {
    return region.Fail();
  }

  device::Stopwatch sw_map;
  if (!EbIndex::DecodeSplits(index_seg->payload, &s.eb_index)) {
    return region.Fail();
  }
  const auto rs_or =
      partition::KdRegionOf(s.eb_index.splits, query.source_coord);
  const auto rt_or =
      partition::KdRegionOf(s.eb_index.splits, query.target_coord);
  if (!rs_or.ok() || !rt_or.ok()) return region.Fail();
  const graph::RegionId rs = *rs_or;
  const graph::RegionId rt = *rt_or;
  run.cpu_ms += sw_map.ElapsedMs();

  EbIndex::NeededByteRanges(R, rs, rt, &s.eb_ranges);
  if (!ensure_ranges()) return region.Fail();

  device::Stopwatch sw_prune;
  // The one full decode, once every byte the query needs is intact.
  if (!EbIndex::Decode(index_seg->payload, &s.eb_index).ok()) {
    return region.Fail();
  }
  // Persist any bytes the repair passes filled in, so the next query of
  // the session starts from the most complete copy seen so far.
  if (cache_on) s.session.UpdateIndex(*index_seg);
  const EbIndex& index = s.eb_index;

  // --- 3. Elliptic pruning (§4.2) ---------------------------------------
  const graph::Dist ub = index.MaxDist(rs, rt);
  std::vector<graph::RegionId>& needed = s.needed_regions;
  needed.clear();
  for (graph::RegionId r = 0; r < R; ++r) {
    if (r == rs || r == rt) {
      needed.push_back(r);
      continue;
    }
    const graph::Dist a = index.MinDist(rs, r);
    const graph::Dist b = index.MinDist(r, rt);
    if (a != graph::kInfDist && b != graph::kInfDist && ub != graph::kInfDist &&
        a + b <= ub) {
      needed.push_back(r);
    }
  }
  run.cpu_ms += sw_prune.ElapsedMs();

  // --- 4. Receive needed regions in broadcast order, in one pass over the
  // cycle; RegionClient repairs the damaged ones and searches. ------------
  std::sort(needed.begin(), needed.end(),
            [&](graph::RegionId a, graph::RegionId b) {
              const uint32_t cur = session.cycle_pos();
              auto ahead = [&](graph::RegionId r) {
                const uint32_t st = index.dir[r].cross_start;
                return st >= cur ? st - cur : st + total - cur;
              };
              return ahead(a) < ahead(b);
            });
  for (graph::RegionId r : needed) {
    const EbIndex::RegionDir& d = index.dir[r];
    const bool want_local =
        d.local_packets > 0 &&
        (r == rs || r == rt || !options.cross_border_opt);
    region.ReceiveRegion(d.cross_start, want_local
                                            ? std::optional(d.local_start)
                                            : std::nullopt);
  }
  return region.Finish();
}

}  // namespace airindex::core
