#include "broadcast/serialization.h"

#include <gtest/gtest.h>

#include "testing/node_records.h"
#include "testing/test_graphs.h"

namespace airindex::broadcast {
namespace {

using testing_support::ReadAllRecords;
using testing_support::SmallNetwork;

TEST(SerializationTest, SingleRecordRoundTrip) {
  graph::Graph g = SmallNetwork(50, 80, 1);
  std::vector<uint8_t> buf;
  EncodeNodeRecord(g, 7, &buf);
  EXPECT_EQ(buf.size(), NodeRecordBytes(g, 7));
  auto records = ReadAllRecords(buf);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  const NodeRecord& rec = (*records)[0];
  EXPECT_EQ(rec.id, 7u);
  EXPECT_DOUBLE_EQ(rec.coord.x, g.Coord(7).x);
  EXPECT_DOUBLE_EQ(rec.coord.y, g.Coord(7).y);
  ASSERT_EQ(rec.arcs.size(), g.OutDegree(7));
  for (size_t i = 0; i < rec.arcs.size(); ++i) {
    EXPECT_EQ(rec.arcs[i].to, g.OutArcs(7)[i].to);
    EXPECT_EQ(rec.arcs[i].weight, g.OutArcs(7)[i].weight);
  }
}

TEST(SerializationTest, WholeNetworkRoundTrip) {
  graph::Graph g = SmallNetwork(200, 320, 2);
  std::vector<graph::NodeId> all;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);
  std::vector<uint8_t> buf = EncodeNodeRecords(g, all);
  EXPECT_EQ(buf.size(), NetworkDataBytes(g));
  auto records = ReadAllRecords(buf);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), g.num_nodes());
  size_t arcs = 0;
  for (const auto& rec : *records) arcs += rec.arcs.size();
  EXPECT_EQ(arcs, g.num_arcs());
}

TEST(SerializationTest, CoordinatesAreBitExact) {
  // Exact doubles are required for client/server kd-region agreement.
  graph::Graph g = SmallNetwork(100, 160, 3);
  std::vector<uint8_t> buf;
  EncodeNodeRecord(g, 42, &buf);
  auto records = ReadAllRecords(buf);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>((*records)[0].coord.x),
            std::bit_cast<uint64_t>(g.Coord(42).x));
}

TEST(SerializationTest, TruncatedHeaderFails) {
  graph::Graph g = SmallNetwork(50, 80, 4);
  std::vector<uint8_t> buf;
  EncodeNodeRecord(g, 0, &buf);
  buf.resize(10);  // mid-header
  EXPECT_FALSE(ReadAllRecords(buf).ok());
}

TEST(SerializationTest, TruncatedAdjacencyFails) {
  graph::Graph g = SmallNetwork(50, 80, 5);
  std::vector<uint8_t> buf;
  EncodeNodeRecord(g, 0, &buf);
  buf.pop_back();
  EXPECT_FALSE(ReadAllRecords(buf).ok());
}

TEST(SerializationTest, EmptyBufferDecodesToNothing) {
  auto records = ReadAllRecords({});
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

}  // namespace
}  // namespace airindex::broadcast
