#include "core/nr_index.h"

#include <gtest/gtest.h>

namespace airindex::core {
namespace {

NrIndex MakeIndex(uint32_t regions, uint32_t m) {
  NrIndex idx;
  idx.num_regions = regions;
  idx.num_nodes = 512;
  idx.region_id = m;
  idx.splits.resize(regions - 1, 3.25);
  idx.next_region.resize(static_cast<size_t>(regions) * regions);
  for (size_t i = 0; i < idx.next_region.size(); ++i) {
    idx.next_region[i] = static_cast<uint8_t>(i % regions);
  }
  idx.geometry.resize(regions);
  for (uint32_t r = 0; r < regions; ++r) {
    idx.geometry[r] = {17 * r + 1, static_cast<uint16_t>(r + 2),
                       static_cast<uint16_t>(r % 3)};
  }
  return idx;
}

TEST(NrIndexTest, EncodeDecodeRoundTrip) {
  NrIndex idx = MakeIndex(16, 5);
  auto payload = idx.Encode();
  EXPECT_EQ(payload.size(), NrIndex::EncodedBytes(16));
  NrIndex decoded;
  const Status status = NrIndex::Decode(payload, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.num_regions, 16u);
  EXPECT_EQ(decoded.num_nodes, 512u);
  EXPECT_EQ(decoded.region_id, 5u);
  EXPECT_EQ(decoded.splits, idx.splits);
  EXPECT_EQ(decoded.next_region, idx.next_region);
  ASSERT_EQ(decoded.geometry.size(), idx.geometry.size());
  for (size_t r = 0; r < idx.geometry.size(); ++r) {
    EXPECT_EQ(decoded.geometry[r].cross_start, idx.geometry[r].cross_start);
    EXPECT_EQ(decoded.geometry[r].cross_packets,
              idx.geometry[r].cross_packets);
    EXPECT_EQ(decoded.geometry[r].local_packets,
              idx.geometry[r].local_packets);
  }
}

TEST(NrIndexTest, NextAccessor) {
  NrIndex idx = MakeIndex(8, 0);
  idx.next_region[3 * 8 + 4] = 7;
  EXPECT_EQ(idx.Next(3, 4), 7);
}

TEST(NrIndexTest, CellRangeIsOneByte) {
  auto [b, e] = NrIndex::CellRange(32, 3, 9);
  EXPECT_EQ(e - b, 1u);
  // Distinct cells map to distinct offsets.
  EXPECT_NE(NrIndex::CellRange(32, 3, 9).first,
            NrIndex::CellRange(32, 3, 10).first);
}

TEST(NrIndexTest, RangesAreDisjointRegions) {
  const uint32_t R = 16;
  auto splits = NrIndex::SplitsRange(R);
  auto cell = NrIndex::CellRange(R, 0, 0);
  auto pos = NrIndex::PositionRange(R, 0);
  EXPECT_LE(splits.second, cell.first);
  EXPECT_LT(cell.first, pos.first);
  EXPECT_LE(pos.second, NrIndex::EncodedBytes(R));
}

TEST(NrIndexTest, DecodeRejectsTruncation) {
  NrIndex idx = MakeIndex(8, 2);
  auto payload = idx.Encode();
  payload.resize(payload.size() - 5);
  NrIndex out;
  EXPECT_FALSE(NrIndex::Decode(payload, &out).ok());
  EXPECT_FALSE(NrIndex::Decode(std::vector<uint8_t>{1, 2, 3}, &out).ok());
}

TEST(NrIndexTest, SupportsMaximumRegions) {
  NrIndex idx = MakeIndex(256, 255);
  NrIndex decoded;
  const Status status = NrIndex::Decode(idx.Encode(), &decoded);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(decoded.num_regions, 256u);
}

}  // namespace
}  // namespace airindex::core
