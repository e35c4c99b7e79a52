#include "broadcast/serialization.h"

#include <bit>

#include "common/byte_io.h"

namespace airindex::broadcast {
namespace {

/// First-arc gap is signed (a neighbour id may be below the node id);
/// later gaps are non-negative by the CSR sorted-span invariant.
uint64_t FirstGap(graph::NodeId id, graph::NodeId to) {
  return ZigZag(static_cast<int64_t>(to) - static_cast<int64_t>(id));
}

}  // namespace

size_t NodeRecordBytes(const graph::Graph& g, graph::NodeId v,
                       CycleEncoding encoding) {
  if (encoding == CycleEncoding::kLegacy) {
    return 4 + 8 + 8 + 2 + 8 * g.OutDegree(v);
  }
  const auto arcs = g.OutArcs(v);
  size_t bytes = VarintBytes(v) + 8 + 8 + VarintBytes(arcs.size());
  graph::NodeId prev = 0;
  for (size_t i = 0; i < arcs.size(); ++i) {
    bytes += VarintBytes(i == 0 ? FirstGap(v, arcs[i].to)
                                : arcs[i].to - prev);
    bytes += VarintBytes(arcs[i].weight);
    prev = arcs[i].to;
  }
  return bytes;
}

void EncodeNodeRecord(const graph::Graph& g, graph::NodeId v,
                      std::vector<uint8_t>* out, CycleEncoding encoding) {
  if (encoding == CycleEncoding::kLegacy) {
    PutU32(out, v);
    PutU64(out, std::bit_cast<uint64_t>(g.Coord(v).x));
    PutU64(out, std::bit_cast<uint64_t>(g.Coord(v).y));
    PutU16(out, static_cast<uint16_t>(g.OutDegree(v)));
    for (const auto& arc : g.OutArcs(v)) {
      PutU32(out, arc.to);
      PutU32(out, arc.weight);
    }
    return;
  }
  const auto arcs = g.OutArcs(v);
  PutVarint(out, v);
  PutU64(out, std::bit_cast<uint64_t>(g.Coord(v).x));
  PutU64(out, std::bit_cast<uint64_t>(g.Coord(v).y));
  PutVarint(out, arcs.size());
  graph::NodeId prev = 0;
  for (size_t i = 0; i < arcs.size(); ++i) {
    PutVarint(out, i == 0 ? FirstGap(v, arcs[i].to) : arcs[i].to - prev);
    PutVarint(out, arcs[i].weight);
    prev = arcs[i].to;
  }
}

std::vector<uint8_t> EncodeNodeRecords(const graph::Graph& g,
                                       const std::vector<graph::NodeId>& nodes,
                                       CycleEncoding encoding) {
  std::vector<uint8_t> out;
  size_t bytes = encoding == CycleEncoding::kCompact ? 1 : 0;
  for (graph::NodeId v : nodes) bytes += NodeRecordBytes(g, v, encoding);
  out.reserve(bytes);
  if (encoding == CycleEncoding::kCompact) out.push_back(kCompactBlobVersion);
  for (graph::NodeId v : nodes) EncodeNodeRecord(g, v, &out, encoding);
  return out;
}

Status ValidateNodeRecords(const uint8_t* data, size_t size,
                           CycleEncoding encoding) {
  if (encoding == CycleEncoding::kLegacy) {
    ByteReader reader(data, size);
    while (reader.remaining() > 0) {
      if (reader.remaining() < 22) {
        return Status::DataLoss("truncated node record header");
      }
      reader.Skip(20);  // id + coordinates
      const uint16_t deg = reader.ReadU16();
      if (reader.remaining() < static_cast<size_t>(deg) * 8) {
        return Status::DataLoss("truncated adjacency list");
      }
      reader.Skip(static_cast<size_t>(deg) * 8);
    }
    return Status::OK();
  }

  // Compact validation walks the same varint structure the cursor decodes.
  if (size < 1) return Status::DataLoss("missing compact blob version");
  if (data[0] != kCompactBlobVersion) {
    return Status::DataLoss("unknown compact blob version");
  }
  // Mirrors NextCompact's checks exactly (including value ranges), so a
  // validated blob never fails mid-stream — the all-or-nothing contract.
  ByteReader reader(data + 1, size - 1);
  while (reader.remaining() > 0) {
    uint64_t id = 0;
    if (!reader.ReadVarint(&id) || id > graph::kInvalidNode) {
      return Status::DataLoss("bad compact node id");
    }
    if (reader.remaining() < 16) {
      return Status::DataLoss("truncated node record header");
    }
    reader.Skip(16);  // coordinates
    uint64_t deg = 0;
    if (!reader.ReadVarint(&deg) || deg > 0xFFFF) {
      return Status::DataLoss("bad compact degree");
    }
    uint64_t prev = 0;
    for (uint64_t i = 0; i < deg; ++i) {
      uint64_t gap = 0, weight = 0;
      if (!reader.ReadVarint(&gap) || !reader.ReadVarint(&weight) ||
          weight > 0xFFFFFFFFULL) {
        return Status::DataLoss("truncated adjacency list");
      }
      const uint64_t to =
          i == 0 ? static_cast<uint64_t>(static_cast<int64_t>(id) +
                                         UnZigZag(gap))
                 : prev + gap;
      if (to > 0xFFFFFFFFULL) {
        return Status::DataLoss("compact neighbour id out of range");
      }
      prev = to;
    }
  }
  return Status::OK();
}

bool NodeRecordCursor::NextLegacy(NodeRecord* rec) {
  ByteReader reader(data_ + pos_, size_ - pos_);
  if (reader.remaining() < 22) {
    status_ = Status::DataLoss("truncated node record header");
    return false;
  }
  rec->id = reader.ReadU32();
  rec->coord.x = std::bit_cast<double>(reader.ReadU64());
  rec->coord.y = std::bit_cast<double>(reader.ReadU64());
  const uint16_t deg = reader.ReadU16();
  if (reader.remaining() < static_cast<size_t>(deg) * 8) {
    status_ = Status::DataLoss("truncated adjacency list");
    return false;
  }
  rec->arcs.clear();
  rec->arcs.reserve(deg);
  for (uint16_t i = 0; i < deg; ++i) {
    graph::Graph::Arc arc;
    arc.to = reader.ReadU32();
    arc.weight = reader.ReadU32();
    rec->arcs.push_back(arc);
  }
  pos_ += reader.position();
  return true;
}

bool NodeRecordCursor::NextCompact(NodeRecord* rec) {
  ByteReader reader(data_ + pos_, size_ - pos_);
  uint64_t id = 0;
  if (!reader.ReadVarint(&id) || id > graph::kInvalidNode) {
    status_ = Status::DataLoss("bad compact node id");
    return false;
  }
  if (reader.remaining() < 16) {
    status_ = Status::DataLoss("truncated node record header");
    return false;
  }
  rec->id = static_cast<graph::NodeId>(id);
  rec->coord.x = std::bit_cast<double>(reader.ReadU64());
  rec->coord.y = std::bit_cast<double>(reader.ReadU64());
  uint64_t deg = 0;
  if (!reader.ReadVarint(&deg) || deg > 0xFFFF) {
    status_ = Status::DataLoss("bad compact degree");
    return false;
  }
  rec->arcs.clear();
  rec->arcs.reserve(deg);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < deg; ++i) {
    uint64_t gap = 0, weight = 0;
    if (!reader.ReadVarint(&gap) || !reader.ReadVarint(&weight) ||
        weight > 0xFFFFFFFFULL) {
      status_ = Status::DataLoss("truncated adjacency list");
      return false;
    }
    const uint64_t to =
        i == 0 ? static_cast<uint64_t>(static_cast<int64_t>(id) +
                                       UnZigZag(gap))
               : prev + gap;
    if (to > 0xFFFFFFFFULL) {
      status_ = Status::DataLoss("compact neighbour id out of range");
      return false;
    }
    graph::Graph::Arc arc;
    arc.to = static_cast<graph::NodeId>(to);
    arc.weight = static_cast<graph::Weight>(weight);
    rec->arcs.push_back(arc);
    prev = to;
  }
  pos_ += reader.position();
  return true;
}

bool NodeRecordCursor::Next(NodeRecord* rec) {
  if (!status_.ok()) return false;
  if (encoding_ == CycleEncoding::kCompact && pos_ == 0) {
    if (size_ < 1 || data_[0] != kCompactBlobVersion) {
      status_ = Status::DataLoss("unknown compact blob version");
      return false;
    }
    pos_ = 1;
  }
  if (pos_ >= size_) return false;
  return encoding_ == CycleEncoding::kLegacy ? NextLegacy(rec)
                                             : NextCompact(rec);
}

size_t NetworkDataBytes(const graph::Graph& g, CycleEncoding encoding) {
  size_t bytes = encoding == CycleEncoding::kCompact ? 1 : 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    bytes += NodeRecordBytes(g, v, encoding);
  }
  return bytes;
}

}  // namespace airindex::broadcast
