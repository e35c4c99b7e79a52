#include "core/client_run.h"

#include <algorithm>

#include "core/region_data.h"

namespace airindex::core {

ClientRun::ClientRun(const broadcast::BroadcastChannel& channel,
                     uint64_t start_pos, const ClientOptions& options,
                     QueryScratch& scratch)
    : session(&channel, start_pos),
      memory(options.heap_bytes),
      scratch_(scratch) {
  scratch_.BeginQuery();
  scratch_.session.BeginQueryStats();
}

std::optional<uint32_t> ClientRun::ReceiveNextIndex(
    broadcast::ReceivedSegment* out, int max_probes) {
  for (int probe = 0; probe < max_probes; ++probe) {
    auto view = session.ReceiveNext();
    if (!view.has_value()) continue;
    if (view->next_index_offset == 0 && view->seq == 0) {
      broadcast::CompleteSegmentFrom(session, *view, out);
      return view->cycle_pos;
    }
    const uint32_t start = broadcast::NextIndexTarget(session, *view);
    broadcast::ReceiveSegmentAt(session, start, out);
    return start;
  }
  return std::nullopt;
}

bool ClientRun::Decodable(const broadcast::ReceivedSegment& seg) const {
  if (!seg.complete) return false;
  const broadcast::BroadcastCycle& cycle = session.cycle();
  return MemoValidate(scratch_.decode_cache, seg, [&] {
    return (cycle.data_layout() == broadcast::DataLayout::kRegion
                ? ValidateRegionData(seg.payload, cycle.encoding())
                : broadcast::ValidateNodeRecords(seg.payload,
                                                 cycle.encoding()))
        .ok();
  });
}

void ClientRun::DecodeIntoPartialGraph(const broadcast::ReceivedSegment& seg,
                                       CsrRebuild* rebuild) {
  if (!Decodable(seg)) return;
  QueryScratch& s = scratch_;
  size_t records = 0, arcs = 0, id_bound = 0, head_bound = 0;
  bool self_loop = false;
  broadcast::NodeRecordCursor cursor(seg.payload,
                                     session.cycle().encoding());
  while (cursor.Next(&s.record)) {
    const broadcast::NodeRecord& rec = s.record;
    s.partial_graph.AddRecord(rec);
    ++records;
    arcs += rec.arcs.size();
    id_bound = std::max(id_bound, size_t{rec.id} + 1);
    for (const graph::Graph::Arc& arc : rec.arcs) {
      head_bound = std::max(head_bound, size_t{arc.to} + 1);
      self_loop |= arc.to == rec.id;
    }
  }
  if (rebuild == nullptr) return;
  memory.Charge(arcs * CsrRebuild::kEdgeListArcBytes +
                records * CsrRebuild::kEdgeListRecordBytes);
  rebuild->arcs += arcs;
  rebuild->id_bound = std::max(rebuild->id_bound, id_bound);
  rebuild->head_bound = std::max(rebuild->head_bound, head_bound);
  rebuild->self_loop |= self_loop;
}

device::QueryMetrics ClientRun::Finish(graph::Dist distance, bool ok) const {
  device::QueryMetrics m;
  m.tuning_packets = session.tuned_packets();
  m.latency_packets = session.latency_packets();
  m.wait_packets = session.wait_packets();
  m.corrupted_packets = session.corrupted_packets();
  m.fec_recovered = session.fec_recovered();
  m.wait_slots = session.wait_slots();
  m.latency_slots = session.latency_slots();
  m.peak_memory_bytes = memory.peak();
  m.memory_exceeded = memory.exceeded();
  m.cpu_ms = cpu_ms;
  m.cache_hits = scratch_.session.query_hits();
  m.warm = m.cache_hits > 0;
  m.distance = distance;
  m.ok = ok;
  return m;
}

device::QueryMetrics ClientRun::FinishFullCycle(graph::Dist distance,
                                                const Status& receive,
                                                size_t network_nodes) const {
  return Finish(distance,
                receive.ok() && distance != graph::kInfDist &&
                    scratch_.partial_graph.known_count() >= network_nodes);
}

}  // namespace airindex::core
