#include "core/cycle_common.h"

#include <bit>

#include "common/byte_io.h"
#include "core/region_data.h"

namespace airindex::core {

bool ReadKdSplits(const broadcast::ReceivedSegment& seg, uint32_t regions,
                  size_t fixed, std::vector<double>* splits) {
  splits->clear();
  if (!seg.complete ||
      seg.payload.size() != 2 + fixed + (regions - size_t{1}) * 8 ||
      GetU16(seg.payload.data()) != regions) {
    return false;
  }
  ByteReader reader(seg.payload);
  reader.Skip(2 + fixed);
  for (uint32_t i = 0; i + 1 < regions; ++i) {
    splits->push_back(std::bit_cast<double>(reader.ReadU64()));
  }
  return true;
}

uint32_t AppendNetworkSegments(const graph::Graph& g,
                               broadcast::CycleBuilder* builder) {
  uint32_t segments = 0;
  std::vector<graph::NodeId> chunk;
  chunk.reserve(kNetworkChunkNodes);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    chunk.push_back(v);
    if (chunk.size() == kNetworkChunkNodes || v + 1 == g.num_nodes()) {
      broadcast::Segment seg;
      seg.type = broadcast::SegmentType::kNetworkData;
      seg.id = segments;
      seg.payload =
          broadcast::EncodeNodeRecords(g, chunk, builder->encoding());
      builder->Add(std::move(seg));
      ++segments;
      chunk.clear();
    }
  }
  return segments;
}

std::vector<RegionPayloads> EncodeRegionPayloads(
    const graph::Graph& g, const BorderPrecompute& pre,
    broadcast::CycleEncoding encoding) {
  std::vector<RegionPayloads> payloads(pre.num_regions);
  for (graph::RegionId r = 0; r < pre.num_regions; ++r) {
    std::vector<graph::NodeId> cross_nodes, local_nodes;
    for (graph::NodeId v : pre.part.region_nodes[r]) {
      (pre.cross_border[v] ? cross_nodes : local_nodes).push_back(v);
    }
    payloads[r].cross = EncodeRegionData(g, pre.borders.region_border[r],
                                         cross_nodes, encoding);
    if (!local_nodes.empty()) {
      payloads[r].local = EncodeRegionData(g, {}, local_nodes, encoding);
    }
  }
  return payloads;
}

}  // namespace airindex::core
