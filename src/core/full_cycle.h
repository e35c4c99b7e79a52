#ifndef AIRINDEX_CORE_FULL_CYCLE_H_
#define AIRINDEX_CORE_FULL_CYCLE_H_

#include <utility>
#include <vector>

#include "broadcast/channel.h"
#include "common/status.h"
#include "core/session_cache.h"
#include "device/memory_tracker.h"

namespace airindex::core {

/// Reusable state of ReceiveFullCycle: per cycle segment, a mask the
/// shared receive steps (broadcast::PrimeSegment / AcceptPacket /
/// SettleSegment) fill, so a segment that completes views the station's
/// bytes. A segment delivered incomplete materializes in `holes`.
///
/// A scratch that lives across queries (core::QueryScratch) keeps these
/// allocations, so a steady-state full-cycle client receives without
/// touching the allocator.
struct FullCycleScratch {
  /// Segment `si` as received, handed to the callback on delivery.
  std::vector<broadcast::ReceivedSegment> partial;
  std::vector<uint8_t> delivered;
  /// The bytes of the segment being delivered with holes: the station's
  /// bytes at received packets, zeros at holes.
  std::vector<uint8_t> holes;
};

/// Shared client loop of the full-cycle methods (§3.2: Dijkstra, ArcFlag,
/// Landmark, and the SPQ/HiTi adaptations all "listen to the entire
/// broadcast cycle"). Listens to every packet of one cycle starting at the
/// session position, delivering each segment to `on_segment` as soon as it
/// completes; raw chunk bytes are charged to `memory` as they arrive and it
/// is the callback's job to release `payload.size()` once it has consumed
/// (decoded) the segment.
///
/// `on_segment` receives a const reference valid for the call only: a
/// complete segment's `payload` views `cycle.segment(si).payload`, an
/// incomplete one's the scratch's `holes` (a copy of it owns its bytes).
/// Segments with lost packets are re-listened to on subsequent cycles when
/// `must_repair(seg)` is true (adjacency data must be complete, §6.2; the
/// predicate sees the segment's metadata and mask, so a method can single
/// out e.g. its header segment); otherwise they are delivered incomplete
/// (packet_ok flags show the holes) so the method-specific fallback can
/// apply.
template <typename MustRepair, typename OnSegment>
Status ReceiveFullCycle(broadcast::ClientSession& session,
                        device::MemoryTracker& memory,
                        MustRepair&& must_repair, OnSegment&& on_segment,
                        int max_repair_cycles, FullCycleScratch& s) {
  using broadcast::ReceivedSegment;

  const broadcast::BroadcastCycle& cycle = session.cycle();
  const size_t num_segments = cycle.num_segments();

  s.partial.resize(num_segments);
  s.delivered.assign(num_segments, 0);
  for (uint32_t si = 0; si < num_segments; ++si) {
    broadcast::PrimeSegment(cycle, si, &s.partial[si]);
  }

  auto ingest = [&](const broadcast::PacketView& view) {
    if (broadcast::AcceptPacket(view, &s.partial[view.segment_index])) {
      memory.Charge(view.chunk.size());
    }
  };

  size_t delivered_count = 0;
  auto try_deliver = [&](uint32_t si, bool force) {
    ReceivedSegment& seg = s.partial[si];
    if (s.delivered[si] || (seg.received != seg.packet_ok.size() && !force)) {
      return;
    }
    s.delivered[si] = 1;
    ++delivered_count;
    // Settled in the borrowed shared buffer: a complete segment leaves it
    // empty and views the station, one with holes materializes there.
    s.holes.clear();
    std::swap(seg.storage, s.holes);
    broadcast::SettleSegment(cycle, &seg);
    on_segment(std::as_const(seg));
    std::swap(seg.storage, s.holes);
    seg.payload = {};
  };

  // One pass over the whole cycle. A full-cycle client consumes every
  // packet, so content starts the instant it tunes in (wait is zero).
  // With FEC on, each parity group is settled as the sweep crosses its
  // boundary: a lost packet whose group decodes is reconstructed here, in
  // the same pass, and never reaches the repair cycles below. The decoder
  // state is fixed-size (stack-resident POD) and a reconstructed packet
  // only sets its mask bit — no allocation either way.
  session.MarkContentStart();
  const uint32_t total = cycle.total_packets();
  // On a scheduled channel one pass over "the whole cycle" means one macro
  // cycle — hot groups repeat, so distinct content is spread over more
  // slots — but the sweep stops the moment every segment has been heard
  // (the flat sweep keeps its historical fixed length: with no duplicates,
  // the last packet of the pass is the last packet of content anyway).
  const bool scheduled = session.channel().scheduled();
  const uint64_t sweep = session.channel().session_cycle_packets();
  const bool fec_on = session.channel().fec().enabled();
  broadcast::FecGroupRun fec_run;
  auto fec_fill = [&](uint64_t abs) {
    const broadcast::PacketView v =
        cycle.PacketAt(session.channel().CyclePos(abs));
    ingest(v);
    try_deliver(v.segment_index, /*force=*/false);
  };
  for (uint64_t i = 0; i < sweep; ++i) {
    if (scheduled && delivered_count == num_segments) break;
    const uint64_t abs = session.position();
    auto view = session.ReceiveNext();
    if (fec_on) fec_run.Observe(session, abs, view.has_value(), fec_fill);
    if (!view.has_value()) continue;
    ingest(*view);
    try_deliver(view->segment_index, /*force=*/false);
  }
  if (fec_on) fec_run.Flush(session, fec_fill);

  // Repair passes for segments that must be complete.
  for (int pass = 0; pass < max_repair_cycles; ++pass) {
    bool anything_missing = false;
    for (uint32_t si = 0; si < num_segments; ++si) {
      if (s.delivered[si]) continue;
      if (!must_repair(s.partial[si])) continue;
      anything_missing = true;
      for (uint32_t p = 0; p < s.partial[si].packet_ok.size(); ++p) {
        if (s.partial[si].packet_ok[p]) continue;
        session.SleepUntilCyclePos((cycle.SegmentStart(si) + p) % total);
        auto view = session.ReceiveNext();
        if (view.has_value()) ingest(*view);
      }
      try_deliver(si, /*force=*/false);
    }
    if (!anything_missing) break;
  }

  // Deliver what remains (incomplete non-repairable segments, or repairable
  // ones that exhausted the repair budget).
  Status status = Status::OK();
  for (uint32_t si = 0; si < num_segments; ++si) {
    if (s.delivered[si]) continue;
    const ReceivedSegment& seg = s.partial[si];
    if (must_repair(seg) && seg.received != seg.packet_ok.size()) {
      status = Status::DataLoss(
          "segment still incomplete after repair budget");
    }
    try_deliver(si, /*force=*/true);
  }
  return status;
}

/// Session-cache-aware wrapper around ReceiveFullCycle — the warm path of
/// the full-cycle methods. When `cache` is armed (see core::SessionCache)
/// and holds *every* cycle segment, the client replays them without
/// listening at all: zero tuning, zero latency, the radio never wakes.
/// Replay is in segment-index order (= broadcast order, so callbacks with
/// ordering expectations — e.g. Landmark's header-before-vectors — see the
/// same sequence as a lossless cold pass) and hands each callback what a
/// lossless receive delivers: the segment complete, viewing the station's
/// bytes. Payload bytes are charged to `memory` as if they had streamed
/// in; callbacks release them as usual.
///
/// Anything short of a full cache — cold session, evictions, a cycle
/// segment that never completed — runs the cold loop, storing each segment
/// that completes before delivery.
template <typename MustRepair, typename OnSegment>
Status ReceiveFullCycleCached(broadcast::ClientSession& session,
                              device::MemoryTracker& memory,
                              SessionCache* cache, MustRepair&& must_repair,
                              OnSegment&& on_segment, int max_repair_cycles,
                              FullCycleScratch& scratch) {
  if (cache == nullptr || !cache->Ready(session.channel())) {
    return ReceiveFullCycle(session, memory, must_repair, on_segment,
                            max_repair_cycles, scratch);
  }
  const broadcast::BroadcastCycle& cycle = session.cycle();
  const uint32_t num_segments =
      static_cast<uint32_t>(cycle.num_segments());
  uint32_t cached = 0;
  while (cached < num_segments && cache->Has(cycle.SegmentStart(cached))) {
    ++cached;
  }
  if (num_segments > 0 && cached == num_segments) {
    scratch.partial.resize(num_segments);
    for (uint32_t si = 0; si < num_segments; ++si) {
      broadcast::ReceivedSegment& seg = scratch.partial[si];
      cache->Load(cycle.SegmentStart(si), &seg);
      memory.Charge(seg.payload.size());
      on_segment(std::as_const(seg));
    }
    cache->CountHit(num_segments);
    return Status::OK();
  }
  auto storing = [&](const broadcast::ReceivedSegment& seg) {
    cache->Store(cycle.SegmentStart(seg.segment_index), seg);
    on_segment(seg);
  };
  return ReceiveFullCycle(session, memory, must_repair, storing,
                          max_repair_cycles, scratch);
}

}  // namespace airindex::core

#endif  // AIRINDEX_CORE_FULL_CYCLE_H_
