#include "core/eb_index.h"

#include <gtest/gtest.h>

#include <set>

namespace airindex::core {
namespace {

EbIndex MakeIndex(uint32_t regions) {
  EbIndex idx;
  idx.num_regions = regions;
  idx.num_nodes = 1000;
  idx.splits.resize(regions - 1);
  for (uint32_t i = 0; i + 1 < regions; ++i) {
    idx.splits[i] = 100.0 * i + 0.5;
  }
  idx.min_rr.resize(static_cast<size_t>(regions) * regions);
  idx.max_rr.resize(static_cast<size_t>(regions) * regions);
  for (uint32_t i = 0; i < regions; ++i) {
    for (uint32_t j = 0; j < regions; ++j) {
      idx.min_rr[i * regions + j] = i * 100 + j;
      idx.max_rr[i * regions + j] = i * 100 + j + 50;
    }
  }
  idx.dir.resize(regions);
  for (uint32_t r = 0; r < regions; ++r) {
    idx.dir[r] = {r * 10, 3, r * 10 + 3, 7};
  }
  idx.copy_starts = {0, 500};
  return idx;
}

TEST(EbIndexTest, EncodeDecodeRoundTrip) {
  EbIndex idx = MakeIndex(8);
  auto payload = idx.Encode();
  EXPECT_EQ(payload.size(), EbIndex::EncodedBytes(8, 2));
  EbIndex decoded;
  const Status status = EbIndex::Decode(payload, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.num_regions, 8u);
  EXPECT_EQ(decoded.num_nodes, 1000u);
  EXPECT_EQ(decoded.splits, idx.splits);
  EXPECT_EQ(decoded.min_rr, idx.min_rr);
  EXPECT_EQ(decoded.max_rr, idx.max_rr);
  EXPECT_EQ(decoded.copy_starts, idx.copy_starts);
  for (uint32_t r = 0; r < 8; ++r) {
    EXPECT_EQ(decoded.dir[r].cross_start, idx.dir[r].cross_start);
    EXPECT_EQ(decoded.dir[r].local_packets, idx.dir[r].local_packets);
  }
}

TEST(EbIndexTest, InfDistanceSurvivesRoundTrip) {
  EbIndex idx = MakeIndex(4);
  idx.min_rr[5] = graph::kInfDist;
  idx.max_rr[5] = graph::kInfDist;
  EbIndex decoded;
  const Status status = EbIndex::Decode(idx.Encode(), &decoded);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(decoded.min_rr[5], graph::kInfDist);
  EXPECT_EQ(decoded.max_rr[5], graph::kInfDist);
}

TEST(EbIndexTest, CellOffsetsAreUniqueAndInMatrixArea) {
  const uint32_t R = 8;
  std::set<size_t> offsets;
  const size_t header = 6 + (R - 1) * 8;
  const size_t matrix_end = header + static_cast<size_t>(R) * R * 8;
  for (uint32_t i = 0; i < R; ++i) {
    for (uint32_t j = 0; j < R; ++j) {
      const size_t off = EbIndex::CellByteOffset(R, i, j);
      EXPECT_GE(off, header);
      EXPECT_LT(off + 8, matrix_end + 1);
      EXPECT_TRUE(offsets.insert(off).second) << i << "," << j;
    }
  }
  EXPECT_EQ(offsets.size(), static_cast<size_t>(R) * R);
}

TEST(EbIndexTest, SquarePackingKeepsBlockContiguous) {
  // Cells of one kBlockW x kBlockW block occupy a contiguous byte span —
  // the §6.2 packing that minimizes row/column exposure per packet.
  const uint32_t R = 9;  // exactly 3x3 blocks of width 3
  for (uint32_t bi = 0; bi < 3; ++bi) {
    for (uint32_t bj = 0; bj < 3; ++bj) {
      size_t lo = SIZE_MAX, hi = 0;
      for (uint32_t i = bi * 3; i < bi * 3 + 3; ++i) {
        for (uint32_t j = bj * 3; j < bj * 3 + 3; ++j) {
          const size_t off = EbIndex::CellByteOffset(R, i, j);
          lo = std::min(lo, off);
          hi = std::max(hi, off + 8);
        }
      }
      EXPECT_EQ(hi - lo, 9u * 8) << bi << "," << bj;
    }
  }
}

TEST(EbIndexTest, NeededRangesCoverRowColumnAndDirectory) {
  const uint32_t R = 8;
  std::vector<std::pair<size_t, size_t>> ranges;
  EbIndex::NeededByteRanges(R, 2, 5, &ranges);
  // Row 2 and column 5 cells must each be inside some range.
  auto covered = [&](size_t off) {
    for (auto [b, e] : ranges) {
      if (off >= b && off + 8 <= e) return true;
    }
    return false;
  };
  for (uint32_t j = 0; j < R; ++j) {
    EXPECT_TRUE(covered(EbIndex::CellByteOffset(R, 2, j))) << j;
  }
  for (uint32_t i = 0; i < R; ++i) {
    EXPECT_TRUE(covered(EbIndex::CellByteOffset(R, i, 5))) << i;
  }
}

TEST(EbIndexTest, DecodeRejectsTruncation) {
  EbIndex idx = MakeIndex(4);
  auto payload = idx.Encode();
  payload.resize(EbIndex::EncodedBytes(4, 0) - 10);
  EbIndex out;
  EXPECT_FALSE(EbIndex::Decode(payload, &out).ok());
  EXPECT_FALSE(EbIndex::Decode(std::vector<uint8_t>{0x01}, &out).ok());
}

TEST(EbIndexTest, SaturatesHugeDistances) {
  EbIndex idx = MakeIndex(4);
  idx.max_rr[0] = (1ull << 40);  // bigger than u32
  EbIndex decoded;
  const Status status = EbIndex::Decode(idx.Encode(), &decoded);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(decoded.max_rr[0], EbIndex::kInfU32 - 1);
}

}  // namespace
}  // namespace airindex::core
