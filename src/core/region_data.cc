#include "core/region_data.h"

#include "common/byte_io.h"

namespace airindex::core {

std::vector<uint8_t> EncodeRegionData(
    const graph::Graph& g, const std::vector<graph::NodeId>& border,
    const std::vector<graph::NodeId>& nodes,
    broadcast::CycleEncoding encoding) {
  std::vector<uint8_t> out;
  size_t bytes = 2 + border.size() * 4 +
                 (encoding == broadcast::CycleEncoding::kCompact ? 1 : 0);
  for (graph::NodeId v : nodes) {
    bytes += broadcast::NodeRecordBytes(g, v, encoding);
  }
  out.reserve(bytes);
  PutU16(&out, static_cast<uint16_t>(border.size()));
  for (graph::NodeId v : border) PutU32(&out, v);
  if (encoding == broadcast::CycleEncoding::kCompact) {
    out.push_back(broadcast::kCompactBlobVersion);
  }
  for (graph::NodeId v : nodes) {
    broadcast::EncodeNodeRecord(g, v, &out, encoding);
  }
  return out;
}

Result<RegionData> DecodeRegionData(std::span<const uint8_t> payload,
                                    broadcast::CycleEncoding encoding) {
  if (payload.size() < 2) return Status::DataLoss("truncated region header");
  ByteReader reader(payload);
  RegionData data;
  const uint16_t border_count = reader.ReadU16();
  if (reader.remaining() < static_cast<size_t>(border_count) * 4) {
    return Status::DataLoss("truncated border list");
  }
  data.border.reserve(border_count);
  for (uint16_t i = 0; i < border_count; ++i) {
    data.border.push_back(reader.ReadU32());
  }
  broadcast::NodeRecordCursor cursor(payload.data() + reader.position(),
                                     payload.size() - reader.position(),
                                     encoding);
  broadcast::NodeRecord rec;
  while (cursor.Next(&rec)) data.records.push_back(rec);
  if (!cursor.status().ok()) return cursor.status();
  return data;
}

Status ValidateRegionData(std::span<const uint8_t> payload,
                          broadcast::CycleEncoding encoding) {
  if (payload.size() < 2) return Status::DataLoss("truncated region header");
  const size_t border_count = GetU16(payload.data());
  if (payload.size() - 2 < border_count * 4) {
    return Status::DataLoss("truncated border list");
  }
  const size_t records_at = 2 + border_count * 4;
  return broadcast::ValidateNodeRecords(payload.data() + records_at,
                                        payload.size() - records_at,
                                        encoding);
}

RegionDataView::RegionDataView(std::span<const uint8_t> payload,
                               broadcast::CycleEncoding encoding)
    : data_(payload.data()),
      size_(payload.size()),
      encoding_(encoding),
      border_count_(payload.size() >= 2 ? GetU16(payload.data()) : 0) {}

graph::NodeId RegionDataView::BorderAt(size_t i) const {
  return GetU32(data_ + 2 + i * 4);
}

broadcast::NodeRecordCursor RegionDataView::records() const {
  const size_t records_at = 2 + border_count_ * 4;
  return broadcast::NodeRecordCursor(data_ + records_at, size_ - records_at,
                                     encoding_);
}


}  // namespace airindex::core
