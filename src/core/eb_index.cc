#include "core/eb_index.h"

#include <bit>

#include "common/byte_io.h"

namespace airindex::core {
namespace {

uint32_t SaturateDist(graph::Dist d) {
  if (d == graph::kInfDist) return EbIndex::kInfU32;
  return d >= EbIndex::kInfU32 ? EbIndex::kInfU32 - 1
                               : static_cast<uint32_t>(d);
}

graph::Dist Unsaturate(uint32_t v) {
  return v == EbIndex::kInfU32 ? graph::kInfDist : v;
}

/// Number of blocks per side of the matrix block grid.
uint32_t BlocksPerSide(uint32_t regions) {
  return (regions + EbIndex::kBlockW - 1) / EbIndex::kBlockW;
}

uint32_t BlockExtent(uint32_t regions, uint32_t block) {
  const uint32_t begin = block * EbIndex::kBlockW;
  const uint32_t end =
      std::min(begin + EbIndex::kBlockW, regions);
  return end - begin;
}

}  // namespace

size_t EbIndex::CellByteOffset(uint32_t num_regions, graph::RegionId i,
                               graph::RegionId j) {
  const uint32_t nb = BlocksPerSide(num_regions);
  const uint32_t bi = i / kBlockW;
  const uint32_t bj = j / kBlockW;

  // Cells in the blocks preceding (bi, bj) in row-major block order.
  size_t cells_before = 0;
  // Full block rows above bi.
  for (uint32_t r = 0; r < bi; ++r) {
    cells_before +=
        static_cast<size_t>(BlockExtent(num_regions, r)) * num_regions;
  }
  // Blocks to the left within block row bi.
  for (uint32_t c = 0; c < bj; ++c) {
    cells_before += static_cast<size_t>(BlockExtent(num_regions, bi)) *
                    BlockExtent(num_regions, c);
  }
  (void)nb;
  // Within the block, row-major.
  const uint32_t li = i % kBlockW;
  const uint32_t lj = j % kBlockW;
  cells_before +=
      static_cast<size_t>(li) * BlockExtent(num_regions, bj) + lj;
  return HeaderBytes(num_regions) + cells_before * 8;
}

size_t EbIndex::EncodedBytes(uint32_t num_regions, uint32_t num_copies) {
  return HeaderBytes(num_regions) + MatrixBytes(num_regions) +
         static_cast<size_t>(num_regions) * 16 + 2 +
         static_cast<size_t>(num_copies) * 4;
}

std::vector<uint8_t> EbIndex::Encode() const {
  std::vector<uint8_t> out;
  out.reserve(EncodedBytes(num_regions,
                           static_cast<uint32_t>(copy_starts.size())));
  PutU16(&out, static_cast<uint16_t>(num_regions));
  PutU32(&out, num_nodes);
  for (double s : splits) PutU64(&out, std::bit_cast<uint64_t>(s));

  // Matrix in block order: emit placeholder then poke cells by offset, which
  // keeps one layout definition (CellByteOffset) authoritative.
  const size_t matrix_begin = out.size();
  out.resize(matrix_begin + MatrixBytes(num_regions), 0);
  for (graph::RegionId i = 0; i < num_regions; ++i) {
    for (graph::RegionId j = 0; j < num_regions; ++j) {
      const size_t off = CellByteOffset(num_regions, i, j);
      const uint32_t mn =
          SaturateDist(min_rr[static_cast<size_t>(i) * num_regions + j]);
      const uint32_t mx =
          SaturateDist(max_rr[static_cast<size_t>(i) * num_regions + j]);
      for (int b = 0; b < 4; ++b) {
        out[off + b] = static_cast<uint8_t>(mn >> (8 * b));
        out[off + 4 + b] = static_cast<uint8_t>(mx >> (8 * b));
      }
    }
  }

  for (const RegionDir& d : dir) {
    PutU32(&out, d.cross_start);
    PutU32(&out, d.cross_packets);
    PutU32(&out, d.local_start);
    PutU32(&out, d.local_packets);
  }
  PutU16(&out, static_cast<uint16_t>(copy_starts.size()));
  for (uint32_t c : copy_starts) PutU32(&out, c);
  return out;
}

uint32_t EbIndex::CheckedRegions(std::span<const uint8_t> payload) {
  if (payload.size() < 6) return 0;
  const uint32_t R = GetU16(payload.data());
  return R >= 2 && payload.size() >= EncodedBytes(R, 0) ? R : 0;
}

bool EbIndex::DecodeSplits(std::span<const uint8_t> payload,
                           EbIndex* out) {
  const uint32_t R = CheckedRegions(payload);
  if (R == 0) return false;
  out->num_regions = R;
  out->num_nodes = GetU32(payload.data() + 2);
  out->splits.clear();
  out->splits.reserve(R - 1);
  for (uint32_t i = 0; i + 1 < R; ++i) {
    out->splits.push_back(
        std::bit_cast<double>(GetU64(payload.data() + 6 + size_t{i} * 8)));
  }
  return true;
}

bool EbIndex::DecodeCopyStarts(std::span<const uint8_t> payload,
                               EbIndex* out) {
  const uint32_t R = CheckedRegions(payload);
  if (R == 0) return false;
  // The list follows the directory: a u16 count, then the u32 starts. A
  // count the payload cannot hold reads as no copies.
  const size_t at = EncodedBytes(R, 0) - 2;
  const uint16_t copies = GetU16(payload.data() + at);
  out->copy_starts.clear();
  if (payload.size() - at - 2 >= static_cast<size_t>(copies) * 4) {
    out->copy_starts.reserve(copies);
    for (uint16_t i = 0; i < copies; ++i) {
      out->copy_starts.push_back(
          GetU32(payload.data() + at + 2 + size_t{i} * 4));
    }
  }
  return true;
}

Status EbIndex::Decode(std::span<const uint8_t> payload, EbIndex* out) {
  if (!DecodeSplits(payload, out)) {
    return Status::DataLoss("EB index shorter than its region count needs");
  }
  const uint32_t R = out->num_regions;
  out->min_rr.resize(static_cast<size_t>(R) * R);
  out->max_rr.resize(static_cast<size_t>(R) * R);
  for (graph::RegionId i = 0; i < R; ++i) {
    for (graph::RegionId j = 0; j < R; ++j) {
      const size_t off = CellByteOffset(R, i, j);
      out->min_rr[static_cast<size_t>(i) * R + j] =
          Unsaturate(GetU32(payload.data() + off));
      out->max_rr[static_cast<size_t>(i) * R + j] =
          Unsaturate(GetU32(payload.data() + off + 4));
    }
  }

  ByteReader dir_reader(
      payload.data() + HeaderBytes(R) + MatrixBytes(R),
      payload.size() - HeaderBytes(R) - MatrixBytes(R));
  out->dir.resize(R);
  for (auto& d : out->dir) {
    d.cross_start = dir_reader.ReadU32();
    d.cross_packets = dir_reader.ReadU32();
    d.local_start = dir_reader.ReadU32();
    d.local_packets = dir_reader.ReadU32();
  }
  DecodeCopyStarts(payload, out);  // passes the check DecodeSplits passed
  return Status::OK();
}

void EbIndex::NeededByteRanges(uint32_t num_regions, graph::RegionId rs,
                               graph::RegionId rt,
                               std::vector<std::pair<size_t, size_t>>* out) {
  std::vector<std::pair<size_t, size_t>>& ranges = *out;
  ranges.clear();
  // Header + splits.
  ranges.emplace_back(0, HeaderBytes(num_regions));
  // Row rs and column rt of the matrix.
  for (graph::RegionId j = 0; j < num_regions; ++j) {
    const size_t off = CellByteOffset(num_regions, rs, j);
    ranges.emplace_back(off, off + 8);
  }
  for (graph::RegionId i = 0; i < num_regions; ++i) {
    const size_t off = CellByteOffset(num_regions, i, rt);
    ranges.emplace_back(off, off + 8);
  }
  // The whole directory and copy-start tail (the payload size is known to
  // the client from the segment length, so "to the end" is well-defined).
  const size_t dir_begin = HeaderBytes(num_regions) +
                           MatrixBytes(num_regions);
  ranges.emplace_back(dir_begin, SIZE_MAX);
}

}  // namespace airindex::core
