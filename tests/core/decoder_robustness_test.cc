// Robustness sweeps: every wire-format decoder must survive arbitrary
// truncation and byte corruption without crashing — a broadcast client
// parses whatever the ether delivers. Decoders either succeed or return an
// error Status; they never read out of bounds (exercised under ASan when
// enabled) and never abort.

#include <gtest/gtest.h>

#include "broadcast/serialization.h"
#include "common/rng.h"
#include "core/eb_index.h"
#include "core/nr_index.h"
#include "core/region_data.h"
#include "testing/test_graphs.h"

namespace airindex::core {
namespace {

using testing_support::SmallNetwork;

std::vector<uint8_t> Corrupt(std::vector<uint8_t> buf, Rng& rng,
                             int flips) {
  for (int i = 0; i < flips && !buf.empty(); ++i) {
    buf[rng.NextBounded(buf.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBounded(255));
  }
  return buf;
}

class DecoderRobustnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderRobustnessTest, NodeRecordsSurviveTruncation) {
  graph::Graph g = SmallNetwork(100, 160, GetParam());
  std::vector<graph::NodeId> nodes;
  for (graph::NodeId v = 0; v < 20; ++v) nodes.push_back(v);
  const std::vector<uint8_t> buf = broadcast::EncodeNodeRecords(g, nodes);
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> cut(buf.begin(),
                             buf.begin() + rng.NextBounded(buf.size() + 1));
    broadcast::NodeRecordCursor cursor(cut);  // must not crash
    broadcast::NodeRecord rec;
    while (cursor.Next(&rec)) EXPECT_LT(rec.arcs.size(), 70000u);
    EXPECT_EQ(broadcast::ValidateNodeRecords(cut).ok(), cursor.status().ok());
  }
}

TEST_P(DecoderRobustnessTest, RegionDataSurvivesCorruption) {
  graph::Graph g = SmallNetwork(100, 160, GetParam() + 10);
  auto payload = EncodeRegionData(g, {1, 2, 3}, {1, 2, 3, 4, 5, 6});
  Rng rng(GetParam() + 11);
  for (int trial = 0; trial < 100; ++trial) {
    auto bad = Corrupt(payload, rng, 1 + static_cast<int>(
                                            rng.NextBounded(8)));
    bad.resize(rng.NextBounded(bad.size() + 1));
    auto res = DecodeRegionData(bad);  // must not crash
    (void)res;
  }
}

TEST_P(DecoderRobustnessTest, EbIndexSurvivesCorruption) {
  EbIndex idx;
  idx.num_regions = 8;
  idx.num_nodes = 100;
  idx.splits.assign(7, 1.5);
  idx.min_rr.assign(64, 10);
  idx.max_rr.assign(64, 20);
  idx.dir.assign(8, {});
  idx.copy_starts = {0, 40};
  const auto payload = idx.Encode();
  Rng rng(GetParam() + 21);
  for (int trial = 0; trial < 100; ++trial) {
    auto bad = Corrupt(payload, rng, 1 + static_cast<int>(
                                             rng.NextBounded(6)));
    bad.resize(rng.NextBounded(bad.size() + 1));
    EbIndex res;
    if (EbIndex::Decode(bad, &res).ok()) {  // must not crash
      EXPECT_GE(res.num_regions, 2u);
      EXPECT_EQ(res.dir.size(), res.num_regions);
    }
  }
}

TEST_P(DecoderRobustnessTest, NrIndexSurvivesCorruption) {
  NrIndex idx;
  idx.num_regions = 8;
  idx.num_nodes = 100;
  idx.region_id = 3;
  idx.splits.assign(7, 2.5);
  idx.next_region.assign(64, 1);
  idx.geometry.assign(8, {});
  const auto payload = idx.Encode();
  Rng rng(GetParam() + 31);
  for (int trial = 0; trial < 100; ++trial) {
    auto bad = Corrupt(payload, rng, 1 + static_cast<int>(
                                             rng.NextBounded(6)));
    bad.resize(rng.NextBounded(bad.size() + 1));
    NrIndex res;
    if (NrIndex::Decode(bad, &res).ok()) {  // must not crash
      EXPECT_GE(res.num_regions, 2u);
      EXPECT_LE(res.num_regions, 256u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderRobustnessTest,
                         ::testing::Values(9001, 9002, 9003));

}  // namespace
}  // namespace airindex::core
