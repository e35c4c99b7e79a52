#include <gtest/gtest.h>

#include "broadcast/channel.h"
#include "core/repair.h"

namespace airindex::core {
namespace {

using broadcast::BroadcastChannel;
using broadcast::BroadcastCycle;
using broadcast::ClientSession;
using broadcast::CycleBuilder;
using broadcast::ReceivedSegment;
using broadcast::Segment;
using broadcast::SegmentType;

BroadcastCycle MakeCycle(int segments = 6, size_t bytes = 1500) {
  CycleBuilder b;
  for (int i = 0; i < segments; ++i) {
    Segment s;
    s.type = SegmentType::kNetworkData;
    s.id = static_cast<uint32_t>(i);
    s.is_index = i == 0;
    s.payload.assign(bytes, static_cast<uint8_t>(i + 1));
    b.Add(std::move(s));
  }
  return std::move(b).Finalize().value();
}

TEST(CompleteSegmentFromTest, AssemblesFromFirstPacket) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, cycle.SegmentStart(2));
  auto first = session.ReceiveNext();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->seq, 0u);
  ReceivedSegment seg;
  broadcast::CompleteSegmentFrom(session, *first, &seg);
  EXPECT_TRUE(seg.complete);
  EXPECT_EQ(seg.segment_id, 2u);
  for (uint8_t byte : seg.payload) EXPECT_EQ(byte, 3);
}

TEST(CompleteSegmentFromTest, MidSegmentLeavesHeadHoles) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, cycle.SegmentStart(2) + 3);
  auto view = session.ReceiveNext();
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->seq, 3u);
  ReceivedSegment seg;
  broadcast::CompleteSegmentFrom(session, *view, &seg);
  EXPECT_FALSE(seg.complete);
  EXPECT_FALSE(seg.packet_ok[0]);
  EXPECT_FALSE(seg.packet_ok[2]);
  EXPECT_TRUE(seg.packet_ok[3]);
  EXPECT_TRUE(seg.packet_ok.back());
}

TEST(RepairAllSegmentsTest, OnePassFixesManySegmentsWithinOneCycle) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.25, 99);
  ClientSession session(&channel, 0);

  // Receive every segment once, collecting damage.
  std::vector<ReceivedSegment> segs(cycle.num_segments());
  for (uint32_t i = 0; i < cycle.num_segments(); ++i) {
    broadcast::ReceiveSegmentAt(session, cycle.SegmentStart(i), &segs[i]);
  }
  std::vector<PendingRepair> pending;
  size_t damaged = 0;
  for (uint32_t i = 0; i < segs.size(); ++i) {
    if (!segs[i].complete) {
      pending.push_back({cycle.SegmentStart(i), &segs[i]});
      ++damaged;
    }
  }
  ASSERT_GT(damaged, 1u);  // 25% loss over 78 packets damages many

  const uint64_t before = session.position();
  std::vector<MissingPacket> missing;
  bool done = RepairAllSegments(session, pending, 32, missing);
  EXPECT_TRUE(done);
  for (const auto& s : segs) EXPECT_TRUE(s.complete);
  // Batched sweeping: repairing all segments should take only a handful of
  // cycles regardless of how many segments were damaged.
  EXPECT_LT(session.position() - before,
            8ull * cycle.total_packets());
}

TEST(RepairAllSegmentsTest, EmptyPendingIsTrue) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  std::vector<MissingPacket> missing;
  EXPECT_TRUE(RepairAllSegments(session, {}, 4, missing));
}

TEST(RepairAllSegmentsTest, GivesUpAfterBudget) {
  BroadcastCycle cycle = MakeCycle();
  // Total loss: nothing can ever be repaired.
  BroadcastChannel channel(&cycle, 1.0, 1);
  ClientSession session(&channel, 0);
  ReceivedSegment seg;
  broadcast::ReceiveSegmentAt(session, cycle.SegmentStart(1), &seg);
  ASSERT_FALSE(seg.complete);
  std::vector<PendingRepair> pending = {{cycle.SegmentStart(1), &seg}};
  std::vector<MissingPacket> missing;
  EXPECT_FALSE(RepairAllSegments(session, pending, 3, missing));
}

// A start one packet into a segment, or past the cycle, names no segment
// start, so the positions the sweep re-listens to hold other packets than
// the missing ones. The sweep keeps only packets of the segment it repairs
// (each in its own slot) and gives up on the rest.
TEST(RepairAllSegmentsTest, KeepsOnlyPacketsOfTheSegmentItRepairs) {
  BroadcastCycle cycle = MakeCycle();
  BroadcastChannel channel(&cycle, 0.0);
  ClientSession session(&channel, 0);
  const uint32_t late = cycle.SegmentStart(1) + 1;
  ReceivedSegment shifted, past;
  broadcast::ReceiveSegmentAt(session, late, &shifted);
  broadcast::ReceiveSegmentAt(session, cycle.total_packets(), &past);
  ASSERT_FALSE(shifted.complete);
  ASSERT_FALSE(past.complete);
  std::vector<PendingRepair> pending = {{late, &shifted},
                                        {cycle.total_packets(), &past}};
  std::vector<MissingPacket> missing;
  EXPECT_FALSE(RepairAllSegments(session, pending, 2, missing));
  EXPECT_FALSE(shifted.packet_ok[0]);
  for (size_t b = 0; b < broadcast::kPayloadSize; ++b) {
    EXPECT_EQ(shifted.payload[b], 0) << b;
  }
  for (size_t b = broadcast::kPayloadSize; b < shifted.payload.size(); ++b) {
    EXPECT_EQ(shifted.payload[b], 2) << b;
  }
  EXPECT_FALSE(past.complete);
}

}  // namespace
}  // namespace airindex::core
