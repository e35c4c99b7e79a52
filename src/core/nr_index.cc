#include "core/nr_index.h"

#include <bit>

#include "common/byte_io.h"

namespace airindex::core {

size_t NrIndex::EncodedBytes(uint32_t num_regions) {
  return HeaderBytes(num_regions) +
         static_cast<size_t>(num_regions) * num_regions +
         static_cast<size_t>(num_regions) * 8;
}

std::vector<uint8_t> NrIndex::Encode() const {
  std::vector<uint8_t> out;
  out.reserve(EncodedBytes(num_regions));
  PutU16(&out, static_cast<uint16_t>(num_regions));
  PutU32(&out, num_nodes);
  PutU16(&out, static_cast<uint16_t>(region_id));
  for (double s : splits) PutU64(&out, std::bit_cast<uint64_t>(s));
  out.insert(out.end(), next_region.begin(), next_region.end());
  for (const RegionGeometry& g : geometry) {
    PutU32(&out, g.cross_start);
    PutU16(&out, g.cross_packets);
    PutU16(&out, g.local_packets);
  }
  return out;
}

Status NrIndex::Decode(std::span<const uint8_t> payload, NrIndex* out) {
  if (payload.size() < 8) return Status::DataLoss("truncated NR index");
  out->num_regions = GetU16(payload.data());
  out->num_nodes = GetU32(payload.data() + 2);
  out->region_id = GetU16(payload.data() + 6);
  if (out->num_regions < 2 || out->num_regions > 256 ||
      payload.size() < EncodedBytes(out->num_regions)) {
    return Status::DataLoss("NR index payload size mismatch");
  }
  ByteReader reader(payload);
  reader.Skip(8);
  out->splits.clear();
  out->splits.reserve(out->num_regions - 1);
  for (uint32_t i = 0; i + 1 < out->num_regions; ++i) {
    out->splits.push_back(std::bit_cast<double>(reader.ReadU64()));
  }
  const size_t cells = static_cast<size_t>(out->num_regions) *
                       out->num_regions;
  out->next_region.assign(payload.begin() + reader.position(),
                          payload.begin() + reader.position() + cells);
  reader.Skip(cells);
  out->geometry.resize(out->num_regions);
  for (auto& g : out->geometry) {
    g.cross_start = reader.ReadU32();
    g.cross_packets = reader.ReadU16();
    g.local_packets = reader.ReadU16();
  }
  return Status::OK();
}

std::pair<size_t, size_t> NrIndex::SplitsRange(uint32_t num_regions) {
  return {0, HeaderBytes(num_regions)};
}

std::pair<size_t, size_t> NrIndex::CellRange(uint32_t num_regions,
                                             graph::RegionId rs,
                                             graph::RegionId rt) {
  const size_t off = HeaderBytes(num_regions) +
                     static_cast<size_t>(rs) * num_regions + rt;
  return {off, off + 1};
}

std::pair<size_t, size_t> NrIndex::PositionRange(uint32_t num_regions,
                                                 graph::RegionId r) {
  const size_t off = HeaderBytes(num_regions) +
                     static_cast<size_t>(num_regions) * num_regions +
                     static_cast<size_t>(r) * 8;
  return {off, off + 8};
}

}  // namespace airindex::core
