#include <gtest/gtest.h>

#include <vector>

#include "broadcast/serialization.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "testing/node_records.h"

namespace airindex::broadcast {
namespace {

using testing_support::ReadAllRecords;

graph::Graph TestGraph(uint32_t nodes = 800, uint64_t seed = 13) {
  graph::GenSpec spec;
  spec.num_nodes = nodes;
  spec.seed = seed;
  return graph::GenerateRoadNetwork(spec).value();
}

std::vector<graph::NodeId> AllNodes(const graph::Graph& g) {
  std::vector<graph::NodeId> nodes(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) nodes[v] = v;
  return nodes;
}

void ExpectSameRecords(const std::vector<NodeRecord>& a,
                       const std::vector<NodeRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    // Coordinates must survive bit-exactly — the client kd-tree mapping
    // depends on it.
    EXPECT_EQ(a[i].coord.x, b[i].coord.x);
    EXPECT_EQ(a[i].coord.y, b[i].coord.y);
    ASSERT_EQ(a[i].arcs.size(), b[i].arcs.size());
    for (size_t k = 0; k < a[i].arcs.size(); ++k) {
      EXPECT_EQ(a[i].arcs[k].to, b[i].arcs[k].to);
      EXPECT_EQ(a[i].arcs[k].weight, b[i].arcs[k].weight);
    }
  }
}

TEST(CompactEncodingTest, RoundTripMatchesLegacyDecode) {
  const graph::Graph g = TestGraph();
  const auto nodes = AllNodes(g);
  const std::vector<uint8_t> legacy =
      EncodeNodeRecords(g, nodes, CycleEncoding::kLegacy);
  const std::vector<uint8_t> compact =
      EncodeNodeRecords(g, nodes, CycleEncoding::kCompact);

  ASSERT_TRUE(ValidateNodeRecords(legacy, CycleEncoding::kLegacy).ok());
  ASSERT_TRUE(ValidateNodeRecords(compact, CycleEncoding::kCompact).ok());

  auto from_legacy = ReadAllRecords(legacy, CycleEncoding::kLegacy);
  auto from_compact = ReadAllRecords(compact, CycleEncoding::kCompact);
  ASSERT_TRUE(from_legacy.ok());
  ASSERT_TRUE(from_compact.ok()) << from_compact.status().ToString();
  ExpectSameRecords(*from_legacy, *from_compact);
}

TEST(CompactEncodingTest, LegacyDefaultUnchanged) {
  // Callers that never mention an encoding keep the historical byte layout:
  // default-argument calls and explicit kLegacy calls must agree, so every
  // pre-existing reader stays compatible.
  const graph::Graph g = TestGraph(200, 5);
  const auto nodes = AllNodes(g);
  EXPECT_EQ(EncodeNodeRecords(g, nodes),
            EncodeNodeRecords(g, nodes, CycleEncoding::kLegacy));
  EXPECT_EQ(NetworkDataBytes(g),
            NetworkDataBytes(g, CycleEncoding::kLegacy));
  auto decoded = ReadAllRecords(EncodeNodeRecords(g, nodes));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), g.num_nodes());
}

TEST(CompactEncodingTest, CompactAtLeast25PercentSmaller) {
  for (uint64_t seed : {1ull, 9ull}) {
    const graph::Graph g = TestGraph(5000, seed);
    const double legacy =
        static_cast<double>(NetworkDataBytes(g, CycleEncoding::kLegacy));
    const double compact =
        static_cast<double>(NetworkDataBytes(g, CycleEncoding::kCompact));
    EXPECT_LE(compact, 0.75 * legacy)
        << "seed " << seed << ": compact " << compact << " legacy "
        << legacy;
  }
}

TEST(CompactEncodingTest, VersionByteIsChecked) {
  const graph::Graph g = TestGraph(50, 2);
  std::vector<uint8_t> compact =
      EncodeNodeRecords(g, AllNodes(g), CycleEncoding::kCompact);
  ASSERT_FALSE(compact.empty());
  ASSERT_EQ(compact[0], kCompactBlobVersion);

  compact[0] ^= 0xFF;
  EXPECT_FALSE(ValidateNodeRecords(compact, CycleEncoding::kCompact).ok());
  NodeRecordCursor cursor(compact, CycleEncoding::kCompact);
  NodeRecord rec;
  EXPECT_FALSE(cursor.Next(&rec));
  EXPECT_FALSE(cursor.status().ok());
}

TEST(CompactEncodingTest, TruncationIsRejected) {
  const graph::Graph g = TestGraph(50, 3);
  const std::vector<uint8_t> compact =
      EncodeNodeRecords(g, AllNodes(g), CycleEncoding::kCompact);
  // Every prefix that cuts into a record must fail validation
  // (all-or-nothing ingest). A bare version byte is the one valid prefix:
  // an empty record sequence.
  for (size_t cut : {compact.size() - 1, compact.size() / 2, size_t{2}}) {
    std::vector<uint8_t> truncated(compact.begin(), compact.begin() + cut);
    EXPECT_FALSE(
        ValidateNodeRecords(truncated, CycleEncoding::kCompact).ok())
        << "cut at " << cut;
  }
  const std::vector<uint8_t> empty_blob = {kCompactBlobVersion};
  EXPECT_TRUE(ValidateNodeRecords(empty_blob, CycleEncoding::kCompact).ok());
}

TEST(CompactEncodingTest, CursorStreamsWithoutAllocatingPerRecord) {
  const graph::Graph g = TestGraph(300, 8);
  const std::vector<uint8_t> compact =
      EncodeNodeRecords(g, AllNodes(g), CycleEncoding::kCompact);
  NodeRecordCursor cursor(compact, CycleEncoding::kCompact);
  NodeRecord rec;
  size_t count = 0;
  while (cursor.Next(&rec)) {
    EXPECT_EQ(rec.id, count);
    EXPECT_EQ(rec.arcs.size(), g.OutDegree(rec.id));
    ++count;
  }
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  EXPECT_EQ(count, g.num_nodes());
}

}  // namespace
}  // namespace airindex::broadcast
